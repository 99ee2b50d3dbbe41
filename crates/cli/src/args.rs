//! The `coevo` command table: every subcommand's words, usage block, flags
//! and handler in one place, and the one parser that checks a command line
//! against it.

use crate::commands;
use coevo_ddl::Dialect;
use std::error::Error;
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::str::FromStr;

/// What a subcommand handler returns; a [`Usage`] error exits 2, any other
/// error exits 1.
pub type CmdResult = Result<(), Box<dyn Error>>;

/// One subcommand: the words that select it, its block of `coevo help`, the
/// flags it accepts and the handler that runs it.
pub struct Spec {
    /// The subcommand's words, e.g. `["store", "gc"]`.
    pub words: &'static [&'static str],
    /// Its usage block, exactly as `coevo help` prints it.
    pub usage: &'static str,
    /// Flags that take a value (`--name VALUE`), without the dashes.
    pub values: &'static [&'static str],
    /// Flags that take no value (`--name`), without the dashes.
    pub switches: &'static [&'static str],
    /// The accepted numbers of positional arguments after the words.
    pub positionals: &'static [usize],
    /// Runs the subcommand on a checked command line.
    pub run: fn(&Args, &mut dyn Write) -> CmdResult,
}

/// The subcommands, in `coevo help` order.
pub const SPECS: &[Spec] = &[
    Spec {
        words: &["study"],
        usage: "    coevo study [--seed N] [--csv DIR] [--from DIR] [--shards DIR]
                [--max-resident N] [--workers N] [--profile] [--store DIR]
                [--renames [--rename-threshold T]]
                                             run the study (generated corpus,
                                             an on-disk one via --from, or a
                                             sharded one via --shards);
                                             --max-resident streams shard
                                             batches at O(shard) peak memory;
                                             --profile prints per-stage timing;
                                             --store serves unchanged projects
                                             from a result store (warm restart);
                                             --renames diffs with the scored
                                             column matcher (Renamed category,
                                             per-taxon rename rates) at the
                                             given confidence threshold",
        values: &[
            "seed",
            "csv",
            "from",
            "shards",
            "max-resident",
            "workers",
            "store",
            "rename-threshold",
        ],
        switches: &["profile", "renames"],
        positionals: &[0],
        run: commands::study,
    },
    Spec {
        words: &["corpus", "gen"],
        usage: "    coevo corpus gen --projects N --out DIR [--shard-size K] [--seed N]
                                             write a sharded corpus (manifest +
                                             fixed-size shard files) scaled to
                                             N projects with the paper's taxon
                                             mix",
        values: &["projects", "out", "shard-size", "seed"],
        switches: &[],
        positionals: &[0],
        run: commands::corpus_gen,
    },
    Spec {
        words: &["corpus", "info"],
        usage: "    coevo corpus info <DIR>                  print a sharded corpus's manifest
                                             summary (format, seed, shards,
                                             projects)",
        values: &[],
        switches: &[],
        positionals: &[1],
        run: commands::corpus_info,
    },
    Spec {
        words: &["store", "stats"],
        usage: "    coevo store stats <DIR>                  result-store entry/byte counts",
        values: &[],
        switches: &[],
        positionals: &[1],
        run: commands::store_stats,
    },
    Spec {
        words: &["store", "verify"],
        usage: "    coevo store verify <DIR>                 validate every entry checksum
                                             (quarantines corrupt entries;
                                             exits nonzero if any were found)",
        values: &[],
        switches: &[],
        positionals: &[1],
        run: commands::store_verify,
    },
    Spec {
        words: &["store", "gc"],
        usage: "    coevo store gc <DIR> --max-bytes N       evict LRU entries beyond budget",
        values: &["max-bytes"],
        switches: &[],
        positionals: &[1],
        run: commands::store_gc,
    },
    Spec {
        words: &["serve"],
        usage: "    coevo serve [--addr HOST:PORT] [--store DIR]
                                             run the incremental study daemon
                                             (line-delimited JSON over TCP:
                                             ingest, project, summary, taxa,
                                             snapshot, shutdown); --store
                                             persists snapshots for warm
                                             restarts",
        values: &["addr", "store"],
        switches: &[],
        positionals: &[0],
        run: commands::serve,
    },
    Spec {
        words: &["check"],
        usage: "    coevo check [--quick|--full] [--seed N] [--repro DIR]
                                             metamorphic & differential
                                             correctness check over a seeded
                                             corpus; exits nonzero and writes
                                             minimized reproducers on violation",
        values: &["seed", "repro"],
        switches: &["quick", "full"],
        positionals: &[0],
        run: commands::check,
    },
    Spec {
        words: &["measure"],
        usage: "    coevo measure <PROJECT-DIR>              measure one on-disk history",
        values: &[],
        switches: &[],
        positionals: &[1],
        run: commands::measure,
    },
    Spec {
        words: &["generate"],
        usage: "    coevo generate <OUT-DIR> [--seed N] [--per-taxon N]
                                             write a corpus in loader layout",
        values: &["seed", "per-taxon"],
        switches: &[],
        positionals: &[1],
        run: commands::generate,
    },
    Spec {
        words: &["case-study"],
        usage: "    coevo case-study                         the paper's §3.3 case study",
        values: &[],
        switches: &[],
        positionals: &[0],
        run: commands::case_study,
    },
    Spec {
        words: &["compat"],
        usage: "    coevo compat <OLD.sql> <NEW.sql> [--dialect D] [--src DIR]
                                             classify one schema change by
                                             compatibility level (BACKWARD /
                                             FORWARD / FULL / BREAKING); with
                                             --src, cross-check BREAKING calls
                                             against stored queries and source
                                             references (false-alarm verdict)
    coevo compat [--shards DIR | --seed N [--projects N]]
                                             corpus mode: per-taxon
                                             compatibility profiles with the
                                             FROZEN-vs-ACTIVE breaking-rate
                                             contrast, over a sharded corpus
                                             (streamed) or a generated one",
        values: &["dialect", "src", "shards", "seed", "projects"],
        switches: &[],
        positionals: &[0, 2],
        run: commands::compat,
    },
    Spec {
        words: &["diff"],
        usage: "    coevo diff <OLD.sql> <NEW.sql> [--dialect mysql|postgres|generic] [--smo]",
        values: &["dialect"],
        switches: &["smo"],
        positionals: &[2],
        run: commands::diff,
    },
    Spec {
        words: &["impact"],
        usage: "    coevo impact <OLD.sql> <NEW.sql> <SRC-DIR> [--dialect D]
                                             source files at risk from a change",
        values: &["dialect"],
        switches: &[],
        positionals: &[3],
        run: commands::impact,
    },
    Spec {
        words: &["parse"],
        usage: "    coevo parse <FILE.sql> [--dialect mysql|postgres|generic]",
        values: &["dialect"],
        switches: &[],
        positionals: &[1],
        run: commands::parse,
    },
    Spec {
        words: &["check-queries"],
        usage: "    coevo check-queries <OLD.sql> <NEW.sql> <SRC-DIR> [--dialect D]
                                             embedded queries a change breaks",
        values: &["dialect"],
        switches: &[],
        positionals: &[3],
        run: commands::check_queries,
    },
];

pub(crate) const DEFAULT_SEED: u64 = 0x5EED_2019;

/// The text of `coevo help`: a header, every spec's usage block, and the
/// `help` line itself.
pub fn help() -> String {
    let mut text = String::from(
        "coevo — joint source and schema evolution study (EDBT 2023 reproduction)\n\nUSAGE:\n",
    );
    for spec in SPECS {
        text.push_str(spec.usage);
        text.push('\n');
    }
    text.push_str("    coevo help");
    text
}

/// A command line the table rejects; `coevo` prints it to stderr and exits 2.
#[derive(Debug)]
pub struct Usage(pub String);

impl fmt::Display for Usage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for Usage {}

/// A [`Usage`] error as a handler's error, for cross-flag checks.
pub fn usage(msg: impl Into<String>) -> Box<dyn Error> {
    Box::new(Usage(msg.into()))
}

/// What a command line asks for.
pub enum Parsed<'a> {
    /// Run the spec's handler on these arguments.
    Run(Args<'a>),
    /// Print this text and exit 0 (`coevo help`, `coevo <sub> --help`).
    Help(String),
}

/// Select the spec for `argv` (without the program name) and check the
/// command line against it.
pub fn parse<'a>(argv: &[&'a str]) -> Result<Parsed<'a>, Usage> {
    let Some((&sub, rest)) = argv.split_first() else {
        return Err(Usage(format!("missing subcommand\n{}", help())));
    };
    if matches!(sub, "help" | "--help" | "-h") {
        return Ok(Parsed::Help(help()));
    }
    let group: Vec<&'static Spec> = SPECS.iter().filter(|s| s.words[0] == sub).collect();
    if group.is_empty() {
        return Err(Usage(format!("unknown subcommand {sub:?}\n{}", help())));
    }
    let blocks = || group.iter().map(|s| s.usage).collect::<Vec<_>>().join("\n");
    let help = rest.contains(&"--help");
    for spec in &group {
        match Args::parse(spec, rest) {
            Ok(None) => continue,
            // The line selects this spec; `--help` is a flag no spec lists,
            // so `Args::parse` reports it as a fault.
            _ if help => return Ok(Parsed::Help(spec.usage.to_string())),
            Ok(Some(args)) => return Ok(Parsed::Run(args)),
            Err(e) => return Err(e),
        }
    }
    if help {
        // No action word (`coevo store --help`): the whole group.
        return Ok(Parsed::Help(blocks()));
    }
    Err(Usage(format!("coevo {sub}: unknown or missing action\n{}", blocks())))
}

/// A command line checked against its [`Spec`]: every flag is one the spec
/// lists, given at most once, and the positional count is one it accepts.
pub struct Args<'a> {
    spec: &'static Spec,
    /// Given flags; switches carry no value.
    flags: Vec<(&'static str, Option<&'a str>)>,
    pos: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Check `tokens` (the command line after the first word) against
    /// `spec`. `Ok(None)` when the spec's further words are not the leading
    /// positionals, i.e. the line is for another spec of the same group.
    pub fn parse(spec: &'static Spec, tokens: &[&'a str]) -> Result<Option<Self>, Usage> {
        let mut args = Args { spec, flags: Vec::new(), pos: Vec::new() };
        let mut fault = None;
        let mut tokens = tokens.iter().copied().peekable();
        while let Some(token) = tokens.next() {
            let Some(name) = token.strip_prefix("--") else {
                args.pos.push(token);
                continue;
            };
            let problem = if let Some(&n) = spec.switches.iter().find(|&&n| n == name) {
                args.add(n, None)
            } else if let Some(&n) = spec.values.iter().find(|&&n| n == name) {
                match tokens.next_if(|v| !v.starts_with("--")) {
                    Some(v) => args.add(n, Some(v)),
                    None => Some(format!("--{n} expects a value")),
                }
            } else {
                Some(format!("unknown flag --{name}"))
            };
            fault = fault.or(problem);
        }
        let extra = &spec.words[1..];
        if !args.pos.starts_with(extra) {
            return Ok(None);
        }
        args.pos.drain(..extra.len());
        let name = spec.words.join(" ");
        if let Some(fault) = fault {
            return Err(Usage(format!("coevo {name}: {fault}\n{}", spec.usage)));
        }
        if !spec.positionals.contains(&args.pos.len()) {
            let counts: Vec<String> = spec.positionals.iter().map(usize::to_string).collect();
            return Err(Usage(format!(
                "coevo {name} takes {} positional argument(s), got {}\n{}",
                counts.join(" or "),
                args.pos.len(),
                spec.usage
            )));
        }
        Ok(Some(args))
    }

    /// Record a flag; the complaint when it was already given.
    fn add(&mut self, name: &'static str, value: Option<&'a str>) -> Option<String> {
        let repeated = self.flags.iter().any(|(n, _)| *n == name);
        self.flags.push((name, value));
        repeated.then(|| format!("--{name} given more than once"))
    }

    fn find(&self, name: &str, known: &[&str]) -> Option<Option<&'a str>> {
        debug_assert!(known.contains(&name), "--{name} is not in the spec");
        self.flags.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The spec these arguments were checked against.
    pub fn spec(&self) -> &'static Spec {
        self.spec
    }

    /// The positional arguments after the spec's words.
    pub fn positionals(&self) -> &[&'a str] {
        &self.pos
    }

    /// Positional argument `i` as a path.
    pub fn path(&self, i: usize) -> &'a Path {
        Path::new(self.pos[i])
    }

    /// Whether switch `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.find(name, self.spec.switches).is_some()
    }

    /// The value of `--name`, if given.
    pub fn value(&self, name: &str) -> Option<&'a str> {
        self.find(name, self.spec.values).flatten()
    }

    /// The value of `--name` as a path, if given.
    pub fn path_flag(&self, name: &str) -> Option<&'a Path> {
        self.value(name).map(Path::new)
    }

    /// The value of `--name` parsed as a number, if given.
    pub fn num<T: FromStr>(&self, name: &str) -> Result<Option<T>, Usage> {
        self.value(name)
            .map(|v| {
                v.parse().map_err(|_| Usage(format!("--{name} expects a number, got {v:?}")))
            })
            .transpose()
    }

    /// The value of `--name` parsed as a number; a usage error when absent.
    pub fn need<T: FromStr>(&self, name: &str) -> Result<T, Usage> {
        self.num(name)?.ok_or_else(|| self.missing(name))
    }

    /// The usage error for a required `--name` that was not given.
    pub fn missing(&self, name: &str) -> Usage {
        let words = self.spec.words.join(" ");
        Usage(format!("coevo {words} requires --{name}\n{}", self.spec.usage))
    }

    /// `--seed`, or the default seed.
    pub fn seed(&self) -> Result<u64, Usage> {
        Ok(self.num("seed")?.unwrap_or(DEFAULT_SEED))
    }

    /// `--dialect`, or the generic dialect.
    pub fn dialect(&self) -> Result<Dialect, Usage> {
        match self.value("dialect") {
            None => Ok(Dialect::Generic),
            Some(v) => {
                Dialect::from_name(v).ok_or_else(|| Usage(format!("unknown dialect {v:?}")))
            }
        }
    }

    /// A usage error when both `--a` and `--b` were given.
    pub fn exclusive(&self, a: &str, b: &str) -> Result<(), Usage> {
        let given = |n: &str| self.flags.iter().any(|(f, _)| *f == n);
        if given(a) && given(b) {
            let name = self.spec.words.join(" ");
            return Err(Usage(format!("coevo {name} takes at most one of --{a} / --{b}")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<&str> {
        line.split_whitespace().collect()
    }

    fn args(line: &str) -> Args<'_> {
        match parse(&argv(line)) {
            Ok(Parsed::Run(a)) => a,
            Ok(Parsed::Help(_)) => panic!("{line:?} asks for help"),
            Err(e) => panic!("{line:?} rejected: {e}"),
        }
    }

    /// How `line` binds: the spec's words, each flag as `name=value` or
    /// `name`, then each positional as `[p]`.
    fn bind(line: &str) -> String {
        let a = args(line);
        let mut parts = vec![a.spec.words.join(" ")];
        parts.extend(a.flags.iter().map(|(n, v)| match v {
            Some(v) => format!("{n}={v}"),
            None => n.to_string(),
        }));
        parts.extend(a.pos.iter().map(|p| format!("[{p}]")));
        parts.join(" ")
    }

    fn accepts(rows: &[(&str, &str)]) {
        for (line, want) in rows {
            assert_eq!(bind(line), *want, "{line}");
        }
    }

    /// Each line is refused as a usage error — exit 2 with nothing on
    /// stdout and a message on stderr — by the parser or by its handler's
    /// checks, before any work.
    fn refuses(lines: &[&str]) {
        for line in lines {
            let (mut out, mut err) = (Vec::new(), Vec::new());
            let code = crate::run(&argv(line), &mut out, &mut err);
            assert_eq!((code, out.as_slice()), (2, &b""[..]), "{line}");
            assert!(!err.is_empty(), "{line}");
        }
    }

    #[test]
    fn study_defaults() {
        accepts(&[("study", "study")]);
        assert_eq!(args("study").seed().unwrap(), DEFAULT_SEED);
    }

    #[test]
    fn study_with_flags() {
        accepts(&[("study --seed 42 --csv out", "study seed=42 csv=out")]);
        assert_eq!(args("study --seed 42").seed().unwrap(), 42);
    }

    #[test]
    fn study_engine_flags() {
        // Switches never swallow the next flag's token, in any position.
        accepts(&[
            ("study --profile --workers 4 --seed 9", "study profile workers=4 seed=9"),
            ("study --workers 2 --profile", "study workers=2 profile"),
        ]);
        refuses(&["study --workers many"]);
    }

    #[test]
    fn study_sharded_flags() {
        accepts(&[(
            "study --shards corpus --max-resident 500",
            "study shards=corpus max-resident=500",
        )]);
        refuses(&["study --from a --shards b", "study --max-resident lots"]);
    }

    #[test]
    fn corpus_subcommands() {
        accepts(&[
            ("corpus gen --projects 2000 --out dir", "corpus gen projects=2000 out=dir"),
            (
                "corpus gen --projects 100 --shard-size 25 --seed 7 --out dir",
                "corpus gen projects=100 shard-size=25 seed=7 out=dir",
            ),
            ("corpus --projects 100 gen --out dir", "corpus gen projects=100 out=dir"),
            ("corpus info dir", "corpus info [dir]"),
        ]);
        refuses(&[
            "corpus gen --out dir",
            "corpus gen --projects 10",
            "corpus info",
            "corpus squash dir",
            "corpus",
        ]);
    }

    #[test]
    fn study_store_flag() {
        accepts(&[("study --store cache --profile", "study store=cache profile")]);
    }

    #[test]
    fn study_rename_flags() {
        accepts(&[
            ("study --renames --seed 7", "study renames seed=7"),
            ("study --renames --rename-threshold 0.75", "study renames rename-threshold=0.75"),
        ]);
        // A threshold needs the switch, must be numeric, and must be in [0, 1].
        refuses(&[
            "study --rename-threshold 0.7",
            "study --renames --rename-threshold hot",
            "study --renames --rename-threshold 1.5",
        ]);
    }

    #[test]
    fn store_subcommands() {
        accepts(&[
            ("store stats cache", "store stats [cache]"),
            ("store verify cache", "store verify [cache]"),
            ("store gc cache --max-bytes 1024", "store gc max-bytes=1024 [cache]"),
        ]);
        refuses(&[
            "store gc cache",
            "store compact cache",
            "store stats",
            "store stats cache --max-bytes 9",
        ]);
    }

    #[test]
    fn serve_flags() {
        accepts(&[
            ("serve", "serve"),
            ("serve --addr 127.0.0.1:0 --store cache", "serve addr=127.0.0.1:0 store=cache"),
        ]);
        refuses(&["serve extra"]);
    }

    #[test]
    fn check_flags() {
        accepts(&[
            ("check", "check"),
            ("check --quick --seed 42", "check quick seed=42"),
            ("check --full --seed 7 --repro out", "check full seed=7 repro=out"),
        ]);
        refuses(&["check --quick --full", "check extra"]);
        assert_eq!(args("check").seed().unwrap(), DEFAULT_SEED);
        assert!(!args("check").switch("full"));
    }

    #[test]
    fn measure_needs_dir() {
        accepts(&[("measure proj/", "measure [proj/]")]);
        refuses(&["measure", "measure a b"]);
    }

    #[test]
    fn generate_flags() {
        accepts(&[(
            "generate corpus --per-taxon 3 --seed 7",
            "generate per-taxon=3 seed=7 [corpus]",
        )]);
    }

    #[test]
    fn compat_single_diff_mode() {
        accepts(&[
            (
                "compat a.sql b.sql --dialect mysql --src src",
                "compat dialect=mysql src=src [a.sql] [b.sql]",
            ),
            ("compat a.sql b.sql", "compat [a.sql] [b.sql]"),
        ]);
        refuses(&[
            "compat a.sql",
            "compat a.sql b.sql c.sql",
            "compat a.sql b.sql --shards dir",
        ]);
        assert_eq!(args("compat a b --dialect mysql").dialect().unwrap(), Dialect::MySql);
        assert_eq!(args("compat a b").dialect().unwrap(), Dialect::Generic);
    }

    #[test]
    fn compat_corpus_mode() {
        accepts(&[
            ("compat", "compat"),
            ("compat --seed 42 --projects 24", "compat seed=42 projects=24"),
            ("compat --shards corpus", "compat shards=corpus"),
        ]);
        // --shards and --projects describe different corpora: reject both.
        refuses(&["compat --shards corpus --projects 9"]);
        assert_eq!(args("compat --shards corpus").seed().unwrap(), DEFAULT_SEED);
        assert_eq!(args("compat --seed 42").seed().unwrap(), 42);
    }

    #[test]
    fn diff_with_dialect_and_smo() {
        accepts(&[
            (
                "diff a.sql b.sql --dialect mysql --smo",
                "diff dialect=mysql smo [a.sql] [b.sql]",
            ),
            // Flag order independent.
            (
                "diff --smo a.sql --dialect postgres b.sql",
                "diff smo dialect=postgres [a.sql] [b.sql]",
            ),
        ]);
        assert_eq!(args("diff a b --dialect mysql").dialect().unwrap(), Dialect::MySql);
        assert_eq!(args("diff a b --dialect postgres").dialect().unwrap(), Dialect::Postgres);
    }

    #[test]
    fn impact_subcommand() {
        accepts(&[(
            "impact a.sql b.sql src --dialect mysql",
            "impact dialect=mysql [a.sql] [b.sql] [src]",
        )]);
        refuses(&["impact a.sql b.sql"]);
    }

    #[test]
    fn check_queries_subcommand() {
        accepts(&[("check-queries a.sql b.sql src", "check-queries [a.sql] [b.sql] [src]")]);
        refuses(&["check-queries a.sql"]);
    }

    #[test]
    fn parse_subcommand() {
        accepts(&[("parse schema.sql", "parse [schema.sql]")]);
        assert_eq!(args("parse schema.sql").dialect().unwrap(), Dialect::Generic);
    }

    #[test]
    fn errors() {
        refuses(&[
            "",
            "unknown",
            "study --seed abc",
            "study --seed",
            "diff a.sql b.sql --dialect oracle",
            "case-study extra",
            "measure --weird x",
        ]);
    }

    #[test]
    fn help_variants() {
        let golden = include_str!("../../../tests/golden/coevo-help.out");
        for h in ["help", "--help", "-h", "help extra"] {
            let (mut out, mut err) = (Vec::new(), Vec::new());
            assert_eq!(crate::run(&argv(h), &mut out, &mut err), 0);
            assert!(err.is_empty(), "{h}");
            assert_eq!(String::from_utf8(out).unwrap(), golden, "{h}");
        }
        // `coevo <sub> --help` prints the subcommand's block and runs nothing.
        for (line, blocks) in [
            ("study --help", vec![SPECS[0].usage]),
            ("serve --addr 127.0.0.1:0 --help", vec![SPECS[6].usage]),
            ("store gc --help", vec![SPECS[5].usage]),
            ("store --max-bytes 9 gc cache --help", vec![SPECS[5].usage]),
            ("corpus info --help", vec![SPECS[2].usage]),
            // No action word: every block of the group.
            ("store --help", vec![SPECS[3].usage, SPECS[4].usage, SPECS[5].usage]),
        ] {
            match parse(&argv(line)) {
                Ok(Parsed::Help(text)) => assert_eq!(text, blocks.join("\n"), "{line}"),
                _ => panic!("{line:?} must ask for help"),
            }
        }
    }

    #[test]
    fn unknown_repeated_and_valueless_flags_are_refused() {
        let mut lines = vec![
            "study --max-residnet 250 --sed 3".to_string(),
            "serve --adr 127.0.0.1:0".to_string(),
            "generate out --seed 1 --seed 2 --bogus x".to_string(),
            "study --quick 5".to_string(),
        ];
        for spec in SPECS {
            let n = spec.positionals.iter().max().unwrap();
            let base = format!("{} {}", spec.words.join(" "), vec!["p"; *n].join(" "));
            lines.push(format!("{base} --bogus"));
            for v in spec.values {
                lines.push(format!("{base} --{v} 1 --{v} 1"));
                lines.push(format!("{base} --{v}"));
            }
            for s in spec.switches {
                lines.push(format!("{base} --{s} --{s}"));
            }
        }
        for line in &lines {
            assert!(parse(&argv(line)).is_err(), "{line} must be refused");
        }
    }

    /// Every `--name` a usage block shows is one its spec accepts, and every
    /// flag the spec accepts is shown, so help and parser cannot drift.
    #[test]
    fn usage_blocks_name_exactly_the_spec_flags() {
        for spec in SPECS {
            let mut shown: Vec<&str> = spec
                .usage
                .split("--")
                .skip(1)
                .map(|t| t.split(|c: char| !c.is_ascii_lowercase() && c != '-').next().unwrap())
                .collect();
            shown.sort_unstable();
            shown.dedup();
            let mut listed: Vec<&str> =
                spec.values.iter().chain(spec.switches).copied().collect();
            listed.sort_unstable();
            assert_eq!(shown, listed, "coevo {}", spec.words.join(" "));
        }
    }

    /// Every `coevo …` line in README.md's fenced blocks parses, so the README
    /// cannot advertise a flag the table refuses.
    #[test]
    fn readme_command_lines_parse() {
        let readme = include_str!("../../../README.md");
        let mut fenced = false;
        let mut checked = 0;
        for line in readme.lines() {
            if line.starts_with("```") {
                fenced = !fenced;
                continue;
            }
            let command = line.split(" #").next().unwrap();
            let Some(rest) = command.trim().strip_prefix("coevo ") else { continue };
            if fenced {
                assert!(parse(&argv(rest)).is_ok(), "README: {line}");
                checked += 1;
            }
        }
        assert!(checked >= 20, "only {checked} README command lines found");
    }
}
