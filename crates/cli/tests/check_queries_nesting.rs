//! `coevo check-queries` over a source file holding a query nested 100 000
//! parentheses deep: the binary skips that query like any other string that
//! does not parse, exits 0, and still reports the queries around it.

use std::process::Command;

#[test]
fn deeply_nested_query_is_skipped_not_a_crash() {
    let dir = std::env::temp_dir().join(format!("coevo_cli_deep_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("src")).unwrap();
    std::fs::write(dir.join("old.sql"), "CREATE TABLE t (a INT, b INT);").unwrap();
    std::fs::write(dir.join("new.sql"), "CREATE TABLE t (a INT);").unwrap();
    let n = 100_000;
    let deep = format!("SELECT a FROM t WHERE {}a = 1{}", "(".repeat(n), ")".repeat(n));
    std::fs::write(
        dir.join("src/app.py"),
        format!("q = \"{deep}\"\nok = \"SELECT b FROM t\"\n"),
    )
    .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_coevo"))
        .arg("check-queries")
        .args([dir.join("old.sql"), dir.join("new.sql"), dir.join("src")])
        .output()
        .expect("run coevo");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("2 embedded queries scanned, 1 broken by the change"), "{stdout}");
    assert!(stdout.contains("line 2: SELECT b FROM t"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
