//! Differential: the study's git-log fold (`coevo_vcs::commit_activity`)
//! against the owned parser it replaced in the pipeline (`parse_log`, then
//! each commit's date, `files_updated` and merge flag). Both sit on one line
//! classifier; this pins that they also agree on every commit and on every
//! error's line and message — on the paper corpus, a 2 000-project
//! generated corpus, hand-written logs in the shapes real `git log` prints,
//! and every one-line deletion or corruption of those.

use coevo_corpus::{case_study_project, generate_corpus, generate_nth, CorpusSpec};
use coevo_heartbeat::{Date, DateTime};
use coevo_vcs::{commit_activity, parse_log, CommitActivity, LogParseError};

/// What `parse_log` says of each commit.
fn reference(text: &str) -> Result<Vec<CommitActivity>, LogParseError> {
    let repo = parse_log(text)?;
    Ok(repo
        .commits
        .iter()
        .map(|c| CommitActivity {
            date: c.date,
            files_updated: c.files_updated(),
            is_merge: c.is_merge,
        })
        .collect())
}

fn agree(text: &str) -> Result<Vec<CommitActivity>, LogParseError> {
    let folded = commit_activity(text);
    assert_eq!(folded, reference(text), "{text:?}");
    folded
}

#[test]
fn paper_corpus_and_case_study_agree() {
    let mut commits = 0;
    for p in generate_corpus(&CorpusSpec::paper()) {
        commits += agree(&p.git_log).expect(&p.raw.name).len();
    }
    assert!(commits > 10_000, "{commits}");
    agree(&case_study_project().git_log).expect("case study log");
}

#[test]
fn generated_2000_project_corpus_agrees() {
    let mut spec = CorpusSpec::paper().with_total(2_000);
    spec.seed = 5;
    for i in 0..2_000 {
        let p = generate_nth(&spec, i).expect("index < total");
        agree(&p.git_log).expect(&p.raw.name);
    }
}

const HEAD: &str = "Author: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n";

/// Hand-written logs, each valid: the variations `parse_log` tolerates.
fn valid_logs() -> Vec<String> {
    vec![
        // Plain name-status, two commits, newest first.
        format!(
            "commit 2\n{HEAD}\n    second\n\nM\tschema.sql\nA\tsrc/a.js\n\n\
             commit 1\nAuthor: B <b@c.d>\nDate:   2019-12-01 09:00:00 -0130\n\n    first\n\nA\tschema.sql\n"
        ),
        // CRLF line endings.
        format!("commit abc\r\n{}\r\n    m\r\n\r\nM\tf\r\nD\tg\r\n", HEAD.replace('\n', "\r\n")),
        // A merge commit, and a `--decorate` header.
        format!(
            "commit abc (HEAD -> main, origin/main)\nMerge: 123 456\n{HEAD}\n    Merge pull request\n\n\
             commit def (tag: v1)\n{HEAD}\n    m\n\nM\tf\n"
        ),
        // Numstat with brace and plain renames, merged into name-status
        // entries where the paths agree, plus a binary file.
        format!(
            "commit abc\n{HEAD}\n    m\n\nR100\tsrc/old/mod.rs\tsrc/new/mod.rs\nM\ta/c\n\
             3\t3\tsrc/{{old => new}}/mod.rs\n1\t1\ta/{{ => b}}/c\n1\t0\tplain => renamed\n\
             -\t-\timg.png\n2\t2\ta/c\n"
        ),
        // Numstat before its name-status line: two changes, not one.
        format!("commit abc\n{HEAD}\n    m\n\n5\t1\tx.py\nM\tx.py\n"),
        // Renames and copies, with and without a similarity score.
        format!("commit abc\n{HEAD}\n    m\n\nR100\told.sql\tnew.sql\nC075\ta.js\tb.js\nR\tp\tq\n"),
        // An empty message, extended headers and trailers.
        format!("commit abc\nAuthorDate: x\n{HEAD}Commit: C <c@d.e>\n\n    \n\nM\tf\n"),
        // No changes at all, and blank lines before the first header.
        format!("\n\n  \ncommit abc\n{HEAD}\n    empty\n\n"),
        // Empty input.
        String::new(),
    ]
}

/// Hand-written logs, each broken: `parse_log`'s error cases.
fn broken_logs() -> Vec<String> {
    vec![
        // Missing `Date:` (reported at the next header, then at the end).
        format!("commit abc\nAuthor: A <a@b.c>\n\n    m\n\ncommit def\n{HEAD}"),
        "commit abc\nAuthor: A <a@b.c>\n\n    m\n".into(),
        // Content before the first commit.
        format!("M\tfile\ncommit abc\n{HEAD}"),
        // An unrecognized line; one whose first character is two bytes.
        format!("commit abc\n{HEAD}\n    m\n\n???garbage without tab\n"),
        format!("commit abc\n{HEAD}\n    m\n\n\u{e9}\tfoo\n"),
        // A bad date, and an empty commit id.
        "commit abc\nAuthor: A <a@b.c>\nDate:   tomorrow\n".into(),
        format!("commit abc\n{HEAD}\ncommit    \n"),
    ]
}

#[test]
fn hand_written_logs_agree() {
    for log in valid_logs() {
        agree(&log).expect("valid log");
    }
    for log in broken_logs() {
        agree(&log).expect_err("broken log");
    }
}

/// Every hand-written log with each line deleted, or replaced by each of a
/// few hostile lines: the two readers agree on all of them.
#[test]
fn one_line_mutations_agree() {
    let hostile = ["", "commit ", "Date: never", "\u{e9}\t\u{e9}", "1\t2", "X\ty\tz", "junk"];
    for log in valid_logs().iter().chain(&broken_logs()) {
        let lines: Vec<&str> = log.split_inclusive('\n').collect();
        for i in 0..lines.len() {
            let mut deleted = lines.clone();
            deleted.remove(i);
            let _ = agree(&deleted.concat());
            for h in hostile {
                let mut replaced = lines.clone();
                let line = format!("{h}\n");
                replaced[i] = &line;
                let _ = agree(&replaced.concat());
            }
        }
    }
}

/// A date as the expectations below spell it:
/// `(y, m, d, hour, minute, second, offset minutes)`.
type Stamp = (i32, u8, u8, u8, u8, u8, i32);

/// A commit's expected date, files updated and merge flag.
type Expected = (Stamp, u64, bool);

fn activity(((y, mo, d, h, mi, s, off), files, merge): Expected) -> CommitActivity {
    let mut date = DateTime::new(Date::new(y, mo, d).unwrap(), h, mi, s).unwrap();
    date.utc_offset_minutes = off;
    CommitActivity { date, files_updated: files, is_merge: merge }
}

/// `log` folds, and parses, to exactly `expected` (oldest first).
fn folds_to(log: &str, expected: &[Expected]) {
    let want: Vec<CommitActivity> = expected.iter().copied().map(activity).collect();
    assert_eq!(agree(log).unwrap_or_else(|e| panic!("{log:?}: {e}")), want, "{log:?}");
}

/// `log` is rejected, by both readers, at `line` with `message`.
fn fails_at(log: &str, line: usize, message: &str) {
    let e = agree(log).expect_err(log);
    assert_eq!((e.line, e.message.as_str()), (line, message), "{log:?}");
}

const NEW_YEAR: Stamp = (2020, 1, 1, 0, 0, 0, 0);

/// Line ends: CRLF, a doubled `\r`, a bare `\r` ending the text or inside
/// a line, and a last line without a newline.
#[test]
fn line_ends_split_like_str_lines() {
    let crlf = "commit a\r\nAuthor: A <a@b.c>\r\nDate:   2020-01-01 00:00:00 +0000\r\n\r\n    m\r\n\r\nM\tf\r\nD\tg\r\n";
    folds_to(crlf, &[(NEW_YEAR, 2, false)]);
    folds_to(&crlf.replace("\r\n", "\r\r\n"), &[(NEW_YEAR, 2, false)]);
    let bare_end = format!("commit a\n{HEAD}\n    m\n\nM\tf\r");
    folds_to(&bare_end, &[(NEW_YEAR, 1, false)]);
    let no_newline = format!("commit a\n{HEAD}\n    m\n\nM\tf\nA\tg");
    folds_to(&no_newline, &[(NEW_YEAR, 2, false)]);
    // A `\r` inside a line is part of it: `f\rx` is one path.
    let inner = format!("commit a\n{HEAD}\n    m\n\nM\tf\rx\nM\tf\n");
    folds_to(&inner, &[(NEW_YEAR, 2, false)]);
    // Three `\r` before a newline: only two are line end.
    fails_at(
        &format!("commit a\n{HEAD}\n    m\n\nM\tf\r\r\r\nx\r\r\r\n"),
        8,
        "unrecognized line \"x\\r\"",
    );
}

/// A two-byte character right after each byte the walker dispatches on:
/// the line means what the full rules make of it.
#[test]
fn multibyte_characters_behind_dispatch_bytes() {
    let changes = |lines: &str| format!("commit a\n{HEAD}\n    m\n\n{lines}");
    // A status letter then `é`: still that letter's change (the rules
    // read the status field's first character only).
    folds_to(&changes("M\u{e9}\tx\nA\u{e9}\ty\nD\u{e9}\tz\n"), &[(NEW_YEAR, 3, false)]);
    for (line, shown) in [
        ("c\u{e9}\tx", "c\u{e9}\\tx"),
        ("D\u{e9}j\u{e0} vu", "D\u{e9}j\u{e0} vu"),
        ("A\u{e9}", "A\u{e9}"),
        ("M\u{e9}rge", "M\u{e9}rge"),
        (" \u{e9}", " \u{e9}"),
        ("\u{e9}", "\u{e9}"),
    ] {
        fails_at(&changes(&format!("{line}\n")), 7, &format!("unrecognized line \"{shown}\""));
    }
    // After the header, a multi-byte character is just text.
    let accented = "commit a\nAuthor: \u{e9}mile <e@x>\nDate:   2020-01-01 00:00:00 +0000\n\n    \u{e9}\n\nM\tf\n";
    folds_to(accented, &[(NEW_YEAR, 1, false)]);
}

/// An `M` line with three tab fields is no name-status change: an error,
/// or a tolerated header when it holds a `:`.
#[test]
fn name_status_line_with_three_fields() {
    let changes = |lines: &str| format!("commit a\n{HEAD}\n    m\n\n{lines}");
    fails_at(&changes("M\tf\nM\ta\tb\n"), 8, "unrecognized line \"M\\ta\\tb\"");
    folds_to(&changes("M\tf\nM\ta:1\tb\n"), &[(NEW_YEAR, 1, false)]);
    // Renames and copies take exactly three fields.
    folds_to(&changes("R100\ta\tb\nC\tc\td\n"), &[(NEW_YEAR, 2, false)]);
}

/// Every `Date:` layout `DateTime::parse` reads, beside git's own.
#[test]
fn date_lines_in_every_accepted_layout() {
    let cases: [(&str, Stamp); 9] = [
        ("2020-01-02 03:04:05 +0100", (2020, 1, 2, 3, 4, 5, 60)),
        ("2020-01-02 03:04:05 -0130", (2020, 1, 2, 3, 4, 5, -90)),
        ("2020-01-02T03:04:05 +0100", (2020, 1, 2, 3, 4, 5, 60)),
        ("2020-01-02T03:04:05Z", (2020, 1, 2, 3, 4, 5, 0)),
        ("2020-01-02 03:04:05.123 +0100", (2020, 1, 2, 3, 4, 5, 60)),
        ("2020-01-02", (2020, 1, 2, 0, 0, 0, 0)),
        ("2020-01-02 03:04:05", (2020, 1, 2, 3, 4, 5, 0)),
        ("2020-01-02 03:04:05 +01:00", (2020, 1, 2, 3, 4, 5, 60)),
        ("2020-01-02 03:04:05+0100", (2020, 1, 2, 3, 4, 5, 60)),
    ];
    for (text, date) in cases {
        // Padding after `Date:`, and trailing blanks, as `trim` drops them.
        for (pad, tail) in [(" ", ""), ("   ", ""), ("   ", " "), ("  \u{a0}", "\t")] {
            let log = format!(
                "commit a\nAuthor: A <a@b.c>\nDate: {pad}{text}{tail}\n\n    m\n\nM\tf\n"
            );
            folds_to(&log, &[(date, 1, false)]);
        }
    }
    // Out of range in the fixed layout: the same error either way.
    fails_at(
        "commit a\nAuthor: A <a@b.c>\nDate:   2020-02-30 03:04:05 +0100\n",
        3,
        "bad date: malformed date/time: \"2020-02-30\"",
    );
    fails_at(
        "commit a\nAuthor: A <a@b.c>\nDate:   2020-01-02 24:04:05 +0100\n",
        3,
        "bad date: hour out of range: 24",
    );
}
