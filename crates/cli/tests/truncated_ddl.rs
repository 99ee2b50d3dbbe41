//! `coevo compat` on DDL text that ends inside a type's parameter list: the
//! binary reports where the text ended and exits 1. The parser once looped
//! forever on such text, growing its memory each turn, so the child runs
//! under a virtual-memory cap and a deadline, and is killed when the
//! deadline passes: a regression fails this test instead of hanging the
//! suite or exhausting the machine.

#![cfg(unix)]

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Virtual memory the child may map, in KiB.
const MEMORY_CAP_KIB: u32 = 1 << 20;

const DEADLINE: Duration = Duration::from_secs(20);

#[test]
fn text_ending_inside_a_type_parameter_list_fails_fast() {
    let dir = std::env::temp_dir().join(format!("coevo_cli_truncated_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (old, new) = (dir.join("old.sql"), dir.join("new.sql"));
    std::fs::write(&old, "CREATE TABLE t (a INT);").unwrap();
    std::fs::write(&new, "CREATE TABLE t (a INT(").unwrap();

    let mut child = Command::new("sh")
        .arg("-c")
        .arg(format!("ulimit -v {MEMORY_CAP_KIB} && exec \"$0\" compat \"$1\" \"$2\""))
        .arg(env!("CARGO_BIN_EXE_coevo"))
        .args([&old, &new])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run coevo");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for coevo") {
            break status;
        }
        if start.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_dir_all(&dir);
            panic!("coevo compat still running after {DEADLINE:?}: the parser hangs");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = child.wait_with_output().expect("collect coevo output");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(status.code(), Some(1), "{status:?}: {stdout}{stderr}");
    assert_eq!(stderr, "error: unexpected end of input, expected ')' at line 1, column 23\n");
    assert_eq!(stdout, "");
}
