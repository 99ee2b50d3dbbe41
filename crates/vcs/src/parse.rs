//! Parsing `git log --name-status --date=iso` output.
//!
//! Accepts real `git log` output (the study's extraction command) as well as
//! the output of [`crate::write::write_log`]. Tolerated variations: `Merge:`
//! lines, extended headers (`Commit:`, `Signed-off-by` style trailers inside
//! the message), empty messages, and CRLF line endings. Commits are returned
//! oldest-first (the model's canonical order), i.e. the reverse of git's
//! print order.
//!
//! The grammar lives in one place: `walk` classifies every line,
//! borrowing from the text, and tracks what both readers need of a commit
//! (its date, merge flag and changed paths). Two readers sit on it:
//!
//! - [`parse_log`] builds the owned [`Repository`] (ids, authors, messages,
//!   every change) for the case study, impact analysis, the mutators and the
//!   oracle;
//! - [`commit_activity`] keeps only one [`CommitActivity`] per commit — the
//!   project heartbeat's input — and allocates nothing per line.
//!
//! Both report the same [`LogParseError`] (line and message) on bad input.

use crate::model::{ChangeStatus, Commit, FileChange, Repository};
use coevo_heartbeat::{Date, DateError, DateTime};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Error from log parsing, with the 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct LogParseError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LogParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "git log parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LogParseError {}

/// One commit's share of the project heartbeat: when it happened, how many
/// files it updated ([`Commit::files_updated`]) and whether it is a merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitActivity {
    /// The commit timestamp.
    pub date: DateTime,
    /// Files updated by the commit.
    pub files_updated: u64,
    /// Merge commits are excluded from the study's view of history.
    pub is_merge: bool,
}

/// Parse a full `git log --name-status` dump into a repository with commits
/// ordered oldest-first.
pub fn parse_log(text: &str) -> Result<Repository, LogParseError> {
    let mut sink = RepoSink::default();
    walk(text, &mut sink)?;
    let mut repo = Repository::new("");
    repo.commits = sink.commits;
    repo.commits.reverse(); // git prints newest first; model is oldest first
    Ok(repo)
}

/// Fold a `git log --name-status` dump into one [`CommitActivity`] per
/// commit, oldest first — exactly what [`parse_log`] followed by
/// [`Commit::files_updated`] gives, and the same errors, without building
/// the [`Repository`].
pub fn commit_activity(text: &str) -> Result<Vec<CommitActivity>, LogParseError> {
    let mut sink = ActivitySink::default();
    walk(text, &mut sink)?;
    sink.0.reverse();
    Ok(sink.0)
}

/// What a reader does with a commit beyond the date, merge flag and changed
/// paths that [`walk`] tracks itself. Every method but `commit` defaults to
/// ignoring its line.
trait LogSink<'a> {
    /// An `Author:` line of the open commit.
    fn author(&mut self, _author: &'a str) {}
    /// One message line (without its four-space indent).
    fn message(&mut self, _line: &'a str) {}
    /// A name-status entry: always a new change.
    fn change(&mut self, _status: Status<'a>, _path: &'a str) {}
    /// A numstat entry: line counts for change `into`, or (`None`) a new
    /// modification of `path` carrying only line counts.
    fn line_counts(&mut self, _into: Option<usize>, _path: LogPath<'a>, _counts: LineCounts) {}
    /// The open commit is complete.
    fn commit(&mut self, id: &'a str, activity: CommitActivity);
}

/// Insertions and deletions of a numstat line (`None` for binary files).
type LineCounts = (Option<u32>, Option<u32>);

/// A name-status change letter, borrowing the rename/copy source.
#[derive(Debug, Clone, Copy)]
enum Status<'a> {
    Added,
    Modified,
    Deleted,
    TypeChanged,
    Renamed(&'a str, u8),
    Copied(&'a str, u8),
}

/// One line of an open commit, classified.
enum Line<'a> {
    Author(&'a str),
    Date(DateTime),
    Merge,
    Message(&'a str),
    Blank,
    Numstat(LineCounts, LogPath<'a>),
    NameStatus(Status<'a>, &'a str),
    /// An unknown header (e.g. `AuthorDate:`, `Commit:`): tolerated.
    Header,
}

/// The one line classifier of the format. Order matters: a numstat line is
/// tried before a name-status line, and anything with a `:` that matched
/// nothing else is a tolerated header.
///
/// The line's first byte picks the one or two rules that can match it (a
/// status letter, `Author: `, `Date: `, `Merge:`, four spaces, a count, or
/// nothing); a line those do not fully accept goes through every rule in
/// order, so what each line means, and each error, does not depend on the
/// dispatch.
#[inline(always)]
fn classify(line: &str, lineno: usize) -> Result<Line<'_>, LogParseError> {
    let fast = match line.as_bytes().first() {
        None => Some(Line::Blank),
        Some(b' ') => line.strip_prefix("    ").map(Line::Message),
        Some(b'A') => match line.strip_prefix("Author: ") {
            Some(rest) => Some(Line::Author(rest.trim())),
            None => plain_name_status(line),
        },
        Some(b'D') => match line.strip_prefix("Date: ") {
            Some(rest) => Some(date_line(rest, lineno)?),
            None => plain_name_status(line),
        },
        Some(b'M') if line.starts_with("Merge:") => Some(Line::Merge),
        Some(b'M' | b'T') => plain_name_status(line),
        Some(b'0'..=b'9' | b'-' | b'+') => {
            numstat_line(line).map(|(counts, path)| Line::Numstat(counts, path))
        }
        Some(b'R' | b'C') => {
            name_status_line(line).map(|(status, path)| Line::NameStatus(status, path))
        }
        _ => None,
    };
    match fast {
        Some(l) => Ok(l),
        None => classify_in_order(line, lineno),
    }
}

/// Every rule of [`classify`], in order.
fn classify_in_order(line: &str, lineno: usize) -> Result<Line<'_>, LogParseError> {
    Ok(if let Some(rest) = line.strip_prefix("Author: ") {
        Line::Author(rest.trim())
    } else if let Some(rest) = line.strip_prefix("Date: ") {
        date_line(rest, lineno)?
    } else if line.starts_with("Merge:") {
        Line::Merge
    } else if let Some(msg) = line.strip_prefix("    ") {
        // Message line (blank message lines arrive as exactly 4 spaces).
        Line::Message(msg)
    } else if line.is_empty() {
        // Separator between header/message/changes blocks.
        Line::Blank
    } else if let Some((counts, path)) = numstat_line(line) {
        Line::Numstat(counts, path)
    } else if let Some((status, path)) = name_status_line(line) {
        Line::NameStatus(status, path)
    } else if line.contains(':') {
        Line::Header
    } else {
        return Err(err(lineno, &format!("unrecognized line {line:?}")));
    })
}

/// `A\tpath`, `M\tpath`, `D\tpath` or `T\tpath` with no second tab: the
/// name-status line [`name_status_line`] reads as that letter's change of
/// `path`. Anything else is left to the full rules.
#[inline(always)]
fn plain_name_status(line: &str) -> Option<Line<'_>> {
    let status = match line.as_bytes() {
        [b'A', b'\t', ..] => Status::Added,
        [b'M', b'\t', ..] => Status::Modified,
        [b'D', b'\t', ..] => Status::Deleted,
        [b'T', b'\t', ..] => Status::TypeChanged,
        _ => return None,
    };
    let path = &line[2..];
    find_byte(path.as_bytes(), 0, b'\t').is_none().then_some(Line::NameStatus(status, path))
}

/// The `Date:` line whose text after `Date: ` is `rest`.
fn date_line(rest: &str, lineno: usize) -> Result<Line<'_>, LogParseError> {
    parse_date(rest).map(Line::Date).map_err(|e| err(lineno, &format!("bad date: {e}")))
}

/// [`DateTime::parse`] of `rest.trim()`, reading git's own
/// `YYYY-MM-DD HH:MM:SS ±ZZZZ` (after the header's padding spaces) in one
/// pass over fixed positions.
fn parse_date(rest: &str) -> Result<DateTime, DateError> {
    match fixed_layout_date(rest.trim_start_matches(' ').as_bytes()) {
        Some(date) => Ok(date),
        None => DateTime::parse(rest.trim()),
    }
}

/// `YYYY-MM-DD HH:MM:SS ±ZZZZ` with every field in the range
/// [`DateTime::parse`] accepts, or `None` for any other text (which that
/// parser then reads or rejects).
fn fixed_layout_date(b: &[u8]) -> Option<DateTime> {
    let &[y0, y1, y2, y3, b'-', mo0, mo1, b'-', d0, d1, b' ', h0, h1, b':', mi0, mi1, b':', s0, s1, b' ', sign, zh0, zh1, zm0, zm1] =
        b
    else {
        return None;
    };
    let sign = match sign {
        b'+' => 1,
        b'-' => -1,
        _ => return None,
    };
    let digit = |c: u8| c.is_ascii_digit().then(|| u32::from(c - b'0'));
    let two = |a: u8, b: u8| Some(digit(a)? * 10 + digit(b)?);
    let year = two(y0, y1)? * 100 + two(y2, y3)?;
    let date = Date::new(year as i32, two(mo0, mo1)? as u8, two(d0, d1)? as u8).ok()?;
    let mut dt =
        DateTime::new(date, two(h0, h1)? as u8, two(mi0, mi1)? as u8, two(s0, s1)? as u8)
            .ok()?;
    // `DateTime::parse` reads `+HHMM` as the number HHMM: hours are its
    // hundreds and minutes the rest, neither range-checked.
    dt.utc_offset_minutes = sign * (two(zh0, zh1)? * 60 + two(zm0, zm1)?) as i32;
    Some(dt)
}

/// The lines of a log: exactly `str::lines`, each then stripped of one
/// more trailing `\r` (so `\r\r\n` and an unterminated last line's `\r`
/// end a line too). Line ends are found a word at a time.
struct Lines<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Iterator for Lines<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if start >= bytes.len() {
            return None;
        }
        let mut end = match find_byte(bytes, start, b'\n') {
            Some(nl) => {
                self.pos = nl + 1;
                // `str::lines` drops the `\r` of a `\r\n`.
                if nl > start && bytes[nl - 1] == b'\r' {
                    nl - 1
                } else {
                    nl
                }
            }
            None => {
                self.pos = bytes.len();
                bytes.len()
            }
        };
        if end > start && bytes[end - 1] == b'\r' {
            end -= 1;
        }
        // Both ends sit next to ASCII bytes (or the text's ends), so they
        // are char boundaries.
        Some(&self.text[start..end])
    }
}

/// The index of the first `byte` at or after `from`, eight bytes per step.
#[inline]
fn find_byte(bytes: &[u8], from: usize, byte: u8) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    let needles = ONES * u64::from(byte);
    let mut i = from;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes")) ^ needles;
        // A zero byte of `word` is a `byte`; the lowest flagged byte is the
        // first (a borrow only flags bytes above a zero byte).
        let zeros = word.wrapping_sub(ONES) & !word & HIGHS;
        if zeros != 0 {
            return Some(i + (zeros.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    bytes[i..].iter().position(|&b| b == byte).map(|p| i + p)
}

/// Walk the log line by line, feeding `sink` and closing each commit with
/// its activity. Lines before the first `commit` header may only be blank.
fn walk<'a>(text: &'a str, sink: &mut impl LogSink<'a>) -> Result<(), LogParseError> {
    let mut open: Option<OpenCommit<'a>> = None;
    // One path index for the whole log: cleared per commit, so its storage
    // is reused.
    let mut paths = ChangedPaths::default();
    let mut lineno = 0;
    for line in (Lines { text, pos: 0 }) {
        lineno += 1;

        let header = match line.as_bytes().first() {
            Some(b'c') => line.strip_prefix("commit "),
            _ => None,
        };
        if let Some(id) = header {
            if let Some(c) = open.take() {
                c.close(lineno, &mut paths, sink)?;
            }
            // `git log --decorate` appends refs: `commit abc (HEAD -> main)`.
            let id = first_word(id);
            if id.is_empty() {
                return Err(err(lineno, "empty commit id"));
            }
            open = Some(OpenCommit { id, date: None, is_merge: false });
            continue;
        }

        let Some(c) = open.as_mut() else {
            if line.trim().is_empty() {
                continue;
            }
            return Err(err(lineno, "content before first 'commit' header"));
        };

        match classify(line, lineno)? {
            Line::Author(author) => sink.author(author),
            Line::Date(date) => c.date = Some(date),
            Line::Merge => c.is_merge = true,
            Line::Message(msg) => sink.message(msg),
            Line::NameStatus(status, path) => {
                paths.push(LogPath::Plain(path));
                sink.change(status, path);
            }
            // Merge line counts into an existing entry for the same path
            // (`--name-status --numstat`), or record a fresh modification
            // (plain `--numstat` logs).
            Line::Numstat(counts, path) => sink.line_counts(paths.merge(path), path, counts),
            Line::Blank | Line::Header => {}
        }
    }
    if let Some(c) = open {
        c.close(lineno, &mut paths, sink)?;
    }
    Ok(())
}

/// `s.split_whitespace().next()` (or `""`), reading bytes while they are
/// printable ASCII: a hex id followed by a space or the line's end.
fn first_word(s: &str) -> &str {
    match s.bytes().position(|b| !b.is_ascii_graphic()) {
        None => s,
        Some(i) if i > 0 && s.as_bytes()[i] == b' ' => &s[..i],
        Some(_) => s.split_whitespace().next().unwrap_or(""),
    }
}

/// The commit whose lines [`walk`] is reading.
struct OpenCommit<'a> {
    id: &'a str,
    date: Option<DateTime>,
    is_merge: bool,
}

impl<'a> OpenCommit<'a> {
    /// Hand the commit to `sink`; `lineno` is the next header's line, or the
    /// log's last line.
    fn close(
        self,
        lineno: usize,
        paths: &mut ChangedPaths<'a>,
        sink: &mut impl LogSink<'a>,
    ) -> Result<(), LogParseError> {
        let date = self
            .date
            .ok_or_else(|| err(lineno, &format!("commit {} has no Date: line", self.id)))?;
        let files_updated = paths.paths.len() as u64;
        paths.clear();
        sink.commit(self.id, CommitActivity { date, files_updated, is_merge: self.is_merge });
        Ok(())
    }
}

/// The paths of one commit's changes in line order, with a first-occurrence
/// index that the first numstat line builds: name-status lines only append,
/// so logs without numstat never hash a path, and the numstat merge is
/// linear in the commit's lines.
#[derive(Default)]
struct ChangedPaths<'a> {
    paths: Vec<LogPath<'a>>,
    first: HashMap<LogPath<'a>, usize>,
    /// `paths[..indexed]` are in `first`.
    indexed: usize,
}

impl<'a> ChangedPaths<'a> {
    fn push(&mut self, path: LogPath<'a>) {
        self.paths.push(path);
    }

    /// The change a numstat line for `path` merges into: the first with the
    /// same path, or `None` after appending `path` as a new change.
    fn merge(&mut self, path: LogPath<'a>) -> Option<usize> {
        for (i, p) in self.paths.iter().enumerate().skip(self.indexed) {
            self.first.entry(*p).or_insert(i);
        }
        self.indexed = self.paths.len();
        if let Some(&i) = self.first.get(&path) {
            return Some(i);
        }
        self.first.insert(path, self.paths.len());
        self.paths.push(path);
        self.indexed += 1;
        None
    }

    fn clear(&mut self) {
        self.paths.clear();
        self.first.clear();
        self.indexed = 0;
    }
}

/// A changed path as a log line spells it: verbatim, or the destination of
/// a numstat rename `dir/{old => new}/rest`, which is `dir/` + `new` +
/// `/rest` with each `//` then replaced by `/`. Equality and hashing follow
/// the spelled-out path, so both forms index together.
#[derive(Debug, Clone, Copy)]
enum LogPath<'a> {
    Plain(&'a str),
    Braced(&'a str, &'a str, &'a str),
}

impl<'a> LogPath<'a> {
    /// The path's bytes, spelled out.
    fn bytes(self) -> impl Iterator<Item = u8> + 'a {
        let (prefix, mid, suffix, collapse) = match self {
            LogPath::Plain(p) => (p, "", "", false),
            LogPath::Braced(prefix, mid, suffix) => (prefix, mid, suffix, true),
        };
        let mut it = prefix.bytes().chain(mid.bytes()).chain(suffix.bytes()).peekable();
        std::iter::from_fn(move || {
            let b = it.next()?;
            if collapse && b == b'/' && it.peek() == Some(&b'/') {
                it.next();
            }
            Some(b)
        })
    }

    /// The spelled-out path, owned.
    fn to_path_string(self) -> String {
        match self {
            LogPath::Plain(p) => p.to_string(),
            // Only ASCII `/` is dropped, so the bytes stay UTF-8 and the
            // conversion loses nothing.
            braced => String::from_utf8_lossy(&braced.bytes().collect::<Vec<_>>()).into_owned(),
        }
    }
}

impl PartialEq for LogPath<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (LogPath::Plain(a), LogPath::Plain(b)) => a == b,
            (a, b) => a.bytes().eq(b.bytes()),
        }
    }
}

impl Eq for LogPath<'_> {}

impl Hash for LogPath<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The spelled-out bytes, so a braced path and its plain spelling
        // agree, fed to the map's own (keyed) hasher: paths come from
        // outside the program.
        for b in self.bytes() {
            state.write_u8(b);
        }
        state.write_u8(0xff); // no path byte: ends the key
    }
}

/// `git log --numstat` line: `<ins>\t<del>\t<path>` with `-` for binary
/// files. Rename entries print `a => b` path syntax; the destination is
/// kept.
fn numstat_line(line: &str) -> Option<(LineCounts, LogPath<'_>)> {
    // A count starts with a digit, `-` or `+` (which `u32::from_str`
    // takes): decide that before scanning for tabs.
    if !matches!(line.as_bytes().first(), Some(b'0'..=b'9' | b'-' | b'+')) {
        return None;
    }
    let mut parts = line.splitn(3, '\t');
    let ins = parts.next()?;
    let del = parts.next()?;
    let path = parts.next()?;
    let parse_count = |s: &str| -> Option<Option<u32>> {
        if s == "-" {
            Some(None) // binary file: counts unavailable
        } else {
            s.parse::<u32>().ok().map(Some)
        }
    };
    let counts = (parse_count(ins)?, parse_count(del)?);
    // Rename syntax: `old => new` or `dir/{old => new}/x`.
    let path = match path.find(" => ") {
        Some(idx) => match (path.rfind('{'), path.find('}')) {
            (Some(open), Some(close)) if open < idx && idx < close => {
                LogPath::Braced(&path[..open], &path[idx + 4..close], &path[close + 1..])
            }
            _ => LogPath::Plain(&path[idx + 4..]),
        },
        None => LogPath::Plain(path),
    };
    Some((counts, path))
}

/// `--name-status` line: `<letter>[similarity]\t<path>[\t<path>]`.
fn name_status_line(line: &str) -> Option<(Status<'_>, &str)> {
    let mut parts = line.split('\t');
    let status = parts.next()?;
    let first_path = parts.next()?;
    let second_path = parts.next();

    let letter = status.chars().next()?;
    // Slice after the letter by its width: a multi-byte first character is
    // no status letter, and must not split a char boundary.
    let similarity = || status[letter.len_utf8()..].parse().unwrap_or(100);
    match (letter, second_path) {
        ('A', None) => Some((Status::Added, first_path)),
        ('M', None) => Some((Status::Modified, first_path)),
        ('D', None) => Some((Status::Deleted, first_path)),
        ('T', None) => Some((Status::TypeChanged, first_path)),
        ('R', Some(to)) => Some((Status::Renamed(first_path, similarity()), to)),
        ('C', Some(to)) => Some((Status::Copied(first_path, similarity()), to)),
        _ => None,
    }
}

/// [`commit_activity`]'s sink: the activities, newest first.
#[derive(Default)]
struct ActivitySink(Vec<CommitActivity>);

impl<'a> LogSink<'a> for ActivitySink {
    fn commit(&mut self, _id: &'a str, activity: CommitActivity) {
        self.0.push(activity);
    }
}

/// [`parse_log`]'s sink: owned commits, newest first, and the open commit's
/// author, message and changes.
#[derive(Default)]
struct RepoSink {
    commits: Vec<Commit>,
    author: String,
    message: String,
    message_started: bool,
    changes: Vec<FileChange>,
}

impl<'a> LogSink<'a> for RepoSink {
    fn author(&mut self, author: &'a str) {
        self.author = author.to_string();
    }

    fn message(&mut self, line: &'a str) {
        if self.message_started {
            self.message.push('\n');
        }
        self.message_started = true;
        self.message.push_str(line);
    }

    fn change(&mut self, status: Status<'a>, path: &'a str) {
        let status = match status {
            Status::Added => ChangeStatus::Added,
            Status::Modified => ChangeStatus::Modified,
            Status::Deleted => ChangeStatus::Deleted,
            Status::TypeChanged => ChangeStatus::TypeChanged,
            Status::Renamed(from, similarity) => {
                ChangeStatus::Renamed { from: from.to_string(), similarity }
            }
            Status::Copied(from, similarity) => {
                ChangeStatus::Copied { from: from.to_string(), similarity }
            }
        };
        self.changes.push(FileChange::new(status, path));
    }

    fn line_counts(&mut self, into: Option<usize>, path: LogPath<'a>, counts: LineCounts) {
        let change = match into {
            Some(i) => &mut self.changes[i],
            None => {
                self.changes.push(FileChange::modified(path.to_path_string()));
                self.changes.last_mut().expect("just pushed")
            }
        };
        (change.insertions, change.deletions) = counts;
    }

    fn commit(&mut self, id: &'a str, activity: CommitActivity) {
        self.commits.push(Commit {
            id: id.to_string(),
            author: std::mem::take(&mut self.author),
            date: activity.date,
            message: std::mem::take(&mut self.message).trim_end().to_string(),
            changes: std::mem::take(&mut self.changes),
            is_merge: activity.is_merge,
        });
        self.message_started = false;
    }
}

fn err(line: usize, message: &str) -> LogParseError {
    LogParseError { line, message: message.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Repository;
    use crate::write::write_log;

    const REAL_STYLE_LOG: &str = "\
commit 9fceb02d0ae598e95dc970b74767f19372d61af8
Author: Panos V <pv@example.org>
Date:   2016-03-04 18:12:44 +0200

    add invoice table
    
    also touch parser

M\tschema.sql
M\tsrc/parser.js
A\tsrc/invoice.js

commit 1111111111111111111111111111111111111111
Author: George K <gk@example.org>
Date:   2015-12-01 09:00:00 +0000

    initial

A\tschema.sql
A\tREADME.md
";

    #[test]
    fn parses_real_style_log() {
        let repo = parse_log(REAL_STYLE_LOG).unwrap();
        assert_eq!(repo.commits.len(), 2);
        // Oldest first after parsing.
        assert_eq!(repo.commits[0].message, "initial");
        assert_eq!(repo.commits[0].changes.len(), 2);
        assert_eq!(repo.commits[1].message, "add invoice table\n\nalso touch parser");
        assert_eq!(repo.commits[1].changes.len(), 3);
        assert_eq!(repo.commits[1].date.utc_offset_minutes, 120);
    }

    #[test]
    fn round_trip_write_parse() {
        use crate::model::{Commit, FileChange};
        use coevo_heartbeat::DateTime;
        let mut r = Repository::new("o/p");
        for (i, day) in [1u8, 5, 9].iter().enumerate() {
            r.push_commit(
                Commit::builder(
                    "Dev <d@x.io>",
                    DateTime::parse(&format!("2017-03-0{day} 12:00:00 +0100")).unwrap(),
                )
                .message(format!("change {i}"))
                .change(FileChange::modified("schema.sql"))
                .change(FileChange::modified(format!("src/f{i}.js")))
                .build(),
            );
        }
        let parsed = parse_log(&write_log(&r)).unwrap();
        assert_eq!(parsed.commits.len(), 3);
        for (orig, back) in r.commits.iter().zip(parsed.commits.iter()) {
            assert_eq!(orig.id, back.id);
            assert_eq!(orig.author, back.author);
            assert_eq!(orig.date, back.date);
            assert_eq!(orig.message, back.message);
            assert_eq!(orig.changes, back.changes);
        }
    }

    #[test]
    fn decorated_commit_header() {
        let log = "commit abc123 (HEAD -> main, origin/main)\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    msg\n\nM\tf\n";
        let repo = parse_log(log).unwrap();
        assert_eq!(repo.commits[0].id, "abc123");
    }

    #[test]
    fn merge_lines_set_flag() {
        let log = "commit abc\nMerge: 123 456\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    Merge pull request\n\n";
        let repo = parse_log(log).unwrap();
        assert!(repo.commits[0].is_merge);
    }

    #[test]
    fn rename_and_copy_entries() {
        let log = "commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    r\n\nR095\told.sql\tnew.sql\nC050\ta.js\tb.js\n";
        let repo = parse_log(log).unwrap();
        let ch = &repo.commits[0].changes;
        assert_eq!(
            ch[0].status,
            ChangeStatus::Renamed { from: "old.sql".into(), similarity: 95 }
        );
        assert_eq!(ch[0].path, "new.sql");
        assert_eq!(ch[1].status, ChangeStatus::Copied { from: "a.js".into(), similarity: 50 });
    }

    #[test]
    fn missing_date_is_error() {
        let log = "commit abc\nAuthor: A <a@b.c>\n\n    msg\n";
        let e = parse_log(log).unwrap_err();
        assert!(e.message.contains("no Date"));
    }

    #[test]
    fn bad_date_is_error() {
        let log = "commit abc\nAuthor: A <a@b.c>\nDate:   tomorrow\n";
        assert!(parse_log(log).is_err());
    }

    #[test]
    fn content_before_commit_is_error() {
        assert!(parse_log("M\tfile\n").is_err());
    }

    #[test]
    fn empty_input_is_empty_repo() {
        let repo = parse_log("").unwrap();
        assert!(repo.commits.is_empty());
        let repo = parse_log("\n\n\n").unwrap();
        assert!(repo.commits.is_empty());
    }

    #[test]
    fn crlf_tolerated() {
        let log = "commit abc\r\nAuthor: A <a@b.c>\r\nDate:   2020-01-01 00:00:00 +0000\r\n\r\n    m\r\n\r\nM\tf\r\n";
        let repo = parse_log(log).unwrap();
        assert_eq!(repo.commits[0].changes.len(), 1);
    }

    #[test]
    fn numstat_lines_fill_line_counts() {
        // `git log --name-status --numstat` style: both blocks present.
        let log = "commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n\nM\tsrc/a.js\n12\t3\tsrc/a.js\n";
        let repo = parse_log(log).unwrap();
        let c = &repo.commits[0].changes[0];
        assert_eq!(c.path, "src/a.js");
        assert_eq!(c.insertions, Some(12));
        assert_eq!(c.deletions, Some(3));
        assert_eq!(repo.commits[0].line_churn(), Some(15));
    }

    #[test]
    fn numstat_only_log() {
        let log = "commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n\n5\t1\ta.py\n-\t-\timg.png\n";
        let repo = parse_log(log).unwrap();
        let ch = &repo.commits[0].changes;
        assert_eq!(ch.len(), 2);
        assert_eq!(ch[0].insertions, Some(5));
        // Binary: counts unknown.
        assert_eq!(ch[1].insertions, None);
        assert_eq!(ch[1].path, "img.png");
    }

    #[test]
    fn numstat_rename_syntax() {
        let log = "commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n\n3\t3\tsrc/{old => new}/mod.rs\n1\t0\tplain => renamed\n";
        let repo = parse_log(log).unwrap();
        let ch = &repo.commits[0].changes;
        assert_eq!(ch[0].path, "src/new/mod.rs");
        assert_eq!(ch[1].path, "renamed");
    }

    #[test]
    fn multibyte_status_is_an_error_not_a_panic() {
        // `é` is two bytes: slicing the status after one byte would split it.
        let log = "commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n\nM\tf\n\u{e9}\tfoo\n";
        let e = parse_log(log).unwrap_err();
        assert_eq!(e.line, 8);
        assert_eq!(e.message, "unrecognized line \"\u{e9}\\tfoo\"");
        assert_eq!(commit_activity(log).unwrap_err(), e);
        // Multi-byte text after a real letter still parses as before.
        let log = log.replace("\u{e9}\tfoo", "R\u{e9}\told\tnew");
        let ch = &parse_log(&log).unwrap().commits[0].changes;
        assert_eq!(ch[1].status, ChangeStatus::Renamed { from: "old".into(), similarity: 100 });
    }

    /// One commit with 50 000 numstat paths: the merge is indexed, so this
    /// takes well under a second in a debug build (the scan it replaced was
    /// quadratic: minutes here).
    #[test]
    fn numstat_merge_is_linear() {
        let n = 50_000;
        let mut log = String::from(
            "commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n\nM\tshared.sql\n",
        );
        for i in 0..n {
            log.push_str(&format!("{}\t1\tsrc/f{i}.rs\n", i % 7));
        }
        log.push_str("12\t3\tshared.sql\n");
        let repo = parse_log(&log).unwrap();
        let commit = &repo.commits[0];
        assert_eq!(commit.files_updated(), n + 1);
        assert_eq!(commit.changes[0].path, "shared.sql");
        assert_eq!(
            (commit.changes[0].insertions, commit.changes[0].deletions),
            (Some(12), Some(3))
        );
        assert_eq!(commit.changes[8].path, "src/f7.rs");
        assert_eq!(
            (commit.changes[8].insertions, commit.changes[8].deletions),
            (Some(0), Some(1))
        );
        assert_eq!(commit_activity(&log).unwrap()[0].files_updated, n + 1);
    }

    #[test]
    fn braced_numstat_merges_with_its_name_status_entry() {
        // `src/{old => new}/mod.rs` spells `src/new/mod.rs`; `a/{ => b}/c`
        // spells `a//c` before `//` collapses to `a/c`.
        let log = "commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n\nR100\tsrc/old/mod.rs\tsrc/new/mod.rs\nM\ta/c\n3\t3\tsrc/{old => new}/mod.rs\n1\t1\ta/{ => b}/c\n";
        let repo = parse_log(log).unwrap();
        let ch = &repo.commits[0].changes;
        assert_eq!(ch.len(), 3);
        assert_eq!(ch[0].insertions, Some(3));
        assert_eq!(ch[2].path, "a/b/c");
        assert_eq!(commit_activity(log).unwrap()[0].files_updated, 3);
    }

    #[test]
    fn activity_matches_parsed_commits() {
        let log = format!("{REAL_STYLE_LOG}\ncommit def\nMerge: 1 2\nAuthor: M <m@x>\nDate:   2014-01-01 00:00:00 +0000\n");
        let repo = parse_log(&log).unwrap();
        let activity = commit_activity(&log).unwrap();
        let expected: Vec<_> = repo
            .commits
            .iter()
            .map(|c| CommitActivity {
                date: c.date,
                files_updated: c.files_updated(),
                is_merge: c.is_merge,
            })
            .collect();
        assert_eq!(activity, expected);
        assert!(activity[0].is_merge);
    }

    /// `walk`'s lines are `str::lines` with one more `\r` stripped, on
    /// every string of up to six characters over `a`, `\r`, `\n` and `é`
    /// (after prefixes that put line ends at every offset of a word).
    #[test]
    fn lines_match_str_lines() {
        let alphabet = ["a", "\r", "\n", "\u{e9}"];
        let mut texts = vec![String::new()];
        let mut last = vec![String::new()];
        for _ in 0..6 {
            last = last.iter().flat_map(|t| alphabet.map(|c| format!("{t}{c}"))).collect();
            texts.extend(last.iter().cloned());
        }
        for prefix in ["", "0123", "0123456789abcdef"] {
            for t in &texts {
                let text = format!("{prefix}{t}");
                let expected: Vec<&str> =
                    text.lines().map(|l| l.strip_suffix('\r').unwrap_or(l)).collect();
                let got: Vec<&str> = Lines { text: &text, pos: 0 }.collect();
                assert_eq!(got, expected, "{text:?}");
            }
        }
    }

    #[test]
    fn find_byte_scans_words_and_tail() {
        let text = b"01234\t6789abcdefghij\nk\x8a\n";
        for byte in [b'\n', b'\t', b'k', 0x8a, 0x0b] {
            for from in 0..=text.len() {
                let expected = text[from..].iter().position(|&b| b == byte).map(|p| from + p);
                assert_eq!(find_byte(text, from, byte), expected, "{byte} from {from}");
            }
        }
        assert_eq!(find_byte(b"", 0, b'\n'), None);
    }

    #[test]
    fn first_word_matches_split_whitespace() {
        let ids = [
            "abc",
            "abc (HEAD -> main)",
            " abc",
            "",
            "   ",
            "a\tb",
            "a\u{a0}b",
            "a\u{1}b c",
            "\u{e9}x y",
            "a\x0bb",
            "ab\u{2003}",
        ];
        for id in ids {
            assert_eq!(first_word(id), id.split_whitespace().next().unwrap_or(""), "{id:?}");
        }
    }

    /// Every single-byte substitution of a canonical git date — digits,
    /// separators, the sign, and each field pushed out of range — reads
    /// the same through the fixed-layout path as through
    /// `DateTime::parse`, value or error.
    #[test]
    fn date_fast_path_matches_datetime_parse() {
        let canonical = "2016-03-04 18:12:44 +0200";
        let subs: Vec<u8> = (b'0'..=b'9').chain(*b" -+:.TZx\t").collect();
        let mut cases = vec![canonical.to_string()];
        for i in 0..canonical.len() {
            for &c in &subs {
                let mut b = canonical.as_bytes().to_vec();
                b[i] = c;
                cases.push(String::from_utf8(b).unwrap());
            }
        }
        // Out of range in every field, and offsets no range check covers.
        cases.extend(
            [
                "2016-13-04 18:12:44 +0200",
                "2016-00-04 18:12:44 +0200",
                "2016-02-30 18:12:44 +0200",
                "2016-02-29 18:12:44 +0200",
                "2015-02-29 18:12:44 +0200",
                "2016-03-00 18:12:44 +0200",
                "2016-03-04 24:12:44 +0200",
                "2016-03-04 18:60:44 +0200",
                "2016-03-04 18:12:60 +0200",
                "2016-03-04 18:12:61 +0200",
                "2016-03-04 18:12:44 +9999",
                "2016-03-04 18:12:44 -0061",
                "0000-01-01 00:00:00 -0000",
            ]
            .map(String::from),
        );
        for case in &cases {
            for padded in [case.clone(), format!("   {case}")] {
                assert_eq!(parse_date(&padded), DateTime::parse(case.trim()), "{padded:?}");
            }
        }
        assert!(fixed_layout_date(canonical.as_bytes()).is_some());
        assert_eq!(parse_date(canonical).unwrap().utc_offset_minutes, 120);
    }

    #[test]
    fn paths_with_spaces() {
        let log = "commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n\nM\tdocs/my file.md\n";
        let repo = parse_log(log).unwrap();
        assert_eq!(repo.commits[0].changes[0].path, "docs/my file.md");
    }
}
