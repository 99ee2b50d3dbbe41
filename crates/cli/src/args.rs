//! Hand-rolled argument parsing for the `coevo` binary.

use coevo_ddl::Dialect;
use std::path::PathBuf;

/// Usage text printed by `coevo help` and on parse errors.
pub const USAGE: &str = "\
coevo — joint source and schema evolution study (EDBT 2023 reproduction)

USAGE:
    coevo study [--seed N] [--csv DIR] [--from DIR] [--shards DIR]
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
                                             given confidence threshold
    coevo corpus gen --projects N --out DIR [--shard-size K] [--seed N]
                                             write a sharded corpus (manifest +
                                             fixed-size shard files) scaled to
                                             N projects with the paper's taxon
                                             mix
    coevo corpus info <DIR>                  print a sharded corpus's manifest
                                             summary (format, seed, shards,
                                             projects)
    coevo store stats <DIR>                  result-store entry/byte counts
    coevo store verify <DIR>                 validate every entry checksum
                                             (quarantines corrupt entries;
                                             exits nonzero if any were found)
    coevo store gc <DIR> --max-bytes N       evict LRU entries beyond budget
    coevo serve [--addr HOST:PORT] [--store DIR]
                                             run the incremental study daemon
                                             (line-delimited JSON over TCP:
                                             ingest, project, summary, taxa,
                                             snapshot, shutdown); --store
                                             persists snapshots for warm
                                             restarts
    coevo check [--quick|--full] [--seed N] [--repro DIR]
                                             metamorphic & differential
                                             correctness check over a seeded
                                             corpus; exits nonzero and writes
                                             minimized reproducers on violation
    coevo measure <PROJECT-DIR>              measure one on-disk history
    coevo generate <OUT-DIR> [--seed N] [--per-taxon N]
                                             write a corpus in loader layout
    coevo case-study                         the paper's §3.3 case study
    coevo compat <OLD.sql> <NEW.sql> [--dialect D] [--src DIR]
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
                                             (streamed) or a generated one
    coevo diff <OLD.sql> <NEW.sql> [--dialect mysql|postgres|generic] [--smo]
    coevo impact <OLD.sql> <NEW.sql> <SRC-DIR> [--dialect D]
                                             source files at risk from a change
    coevo parse <FILE.sql> [--dialect mysql|postgres|generic]
    coevo check-queries <OLD.sql> <NEW.sql> <SRC-DIR> [--dialect D]
                                             embedded queries a change breaks
    coevo help";

/// A parsed subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `coevo study`: the full corpus study.
    Study {
        /// The deterministic RNG seed.
        seed: u64,
        /// Directory for CSV output, when requested.
        csv_dir: Option<PathBuf>,
        /// Run over an on-disk corpus directory instead of generating one.
        from_dir: Option<PathBuf>,
        /// Run over a sharded corpus directory (`coevo corpus gen` layout).
        shards_dir: Option<PathBuf>,
        /// Stream execution with at most this many resident projects
        /// (absent = one uncapped pass that keeps every project's data).
        max_resident: Option<usize>,
        /// Engine worker threads (None = one per available CPU).
        workers: Option<usize>,
        /// Print the engine's per-stage execution profile.
        profile: bool,
        /// Root directory of the content-addressed result store.
        store: Option<PathBuf>,
        /// Diff with rename detection (the scored column matcher).
        renames: bool,
        /// Confidence threshold override for `--renames`.
        rename_threshold: Option<f64>,
    },
    /// `coevo corpus`: generate and inspect sharded corpora.
    Corpus {
        /// What to do.
        action: CorpusAction,
    },
    /// `coevo store`: inspect and maintain a result store.
    Store {
        /// What to do with the store.
        action: StoreAction,
        /// The store's root directory.
        dir: PathBuf,
    },
    /// `coevo serve`: the incremental study daemon.
    Serve {
        /// The address to bind (`host:port`), when overridden.
        addr: Option<String>,
        /// Root directory of the snapshot store (memory-only when absent).
        store: Option<PathBuf>,
    },
    /// `coevo check`: the metamorphic/differential correctness harness.
    Check {
        /// Run the thorough configuration (54 projects) instead of the
        /// quick one (12).
        full: bool,
        /// The deterministic corpus/mutation seed.
        seed: u64,
        /// Where to write reproducers (defaults to a temp directory).
        repro_dir: Option<PathBuf>,
    },
    /// `coevo measure`: one on-disk project history.
    Measure {
        /// The target directory.
        dir: PathBuf,
    },
    /// `coevo generate`: write a corpus in the loader layout.
    Generate {
        /// The target directory.
        dir: PathBuf,
        /// The deterministic RNG seed.
        seed: u64,
        /// Override of the per-taxon project count.
        per_taxon: Option<usize>,
    },
    /// `coevo case-study`: the paper's §3.3 project.
    CaseStudy,
    /// `coevo compat`: compatibility classification of schema changes.
    Compat {
        /// Single-diff or corpus mode.
        mode: CompatMode,
    },
    /// `coevo diff`: diff two DDL files.
    Diff {
        /// Path to the old schema version.
        old: PathBuf,
        /// Path to the new schema version.
        new: PathBuf,
        /// The SQL dialect to parse with.
        dialect: Dialect,
        /// Whether to print the SMO script.
        smo: bool,
    },
    /// `coevo impact`: source files at risk from a schema change.
    Impact {
        /// Path to the old schema version.
        old: PathBuf,
        /// Path to the new schema version.
        new: PathBuf,
        /// The source tree to scan.
        src_dir: PathBuf,
        /// The SQL dialect to parse with.
        dialect: Dialect,
    },
    /// `coevo check-queries`: embedded queries a schema change breaks.
    CheckQueries {
        /// Path to the old schema version.
        old: PathBuf,
        /// Path to the new schema version.
        new: PathBuf,
        /// The source tree to scan.
        src_dir: PathBuf,
        /// The SQL dialect to parse with.
        dialect: Dialect,
    },
    /// `coevo parse`: validate and summarize a DDL file.
    Parse {
        /// The file to process.
        file: PathBuf,
        /// The SQL dialect to parse with.
        dialect: Dialect,
    },
    /// `coevo help`: print usage.
    Help,
}

/// A `coevo corpus` action.
#[derive(Debug, Clone, PartialEq)]
pub enum CorpusAction {
    /// Generate a sharded corpus on disk.
    Gen {
        /// Target directory for the manifest and shard files.
        out: PathBuf,
        /// Total number of projects (the paper's taxon mix, rescaled).
        projects: usize,
        /// Projects per shard file.
        shard_size: usize,
        /// The deterministic RNG seed.
        seed: u64,
    },
    /// Print a sharded corpus's manifest summary.
    Info {
        /// The corpus directory.
        dir: PathBuf,
    },
}

/// What `coevo compat` runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum CompatMode {
    /// Classify one schema change (two DDL files).
    Single {
        /// Path to the old schema version.
        old: PathBuf,
        /// Path to the new schema version.
        new: PathBuf,
        /// The SQL dialect to parse with.
        dialect: Dialect,
        /// Source tree to scan for migration-impact evidence.
        src_dir: Option<PathBuf>,
    },
    /// Per-taxon compatibility profiles over a whole corpus.
    Corpus {
        /// Stream a sharded corpus from disk instead of generating one.
        shards_dir: Option<PathBuf>,
        /// The deterministic corpus seed (generated mode).
        seed: u64,
        /// Total project count of the generated corpus (paper mix when
        /// absent).
        projects: Option<usize>,
    },
}

/// A `coevo store` maintenance action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StoreAction {
    /// Print entry/byte/quarantine counts.
    Stats,
    /// Validate every entry; quarantine and report failures.
    Verify,
    /// Evict least-recently-used entries beyond a byte budget.
    Gc {
        /// The byte budget committed entries may occupy.
        max_bytes: u64,
    },
}

/// Outcome of argument parsing.
pub type ParsedArgs = Result<Command, String>;

const DEFAULT_SEED: u64 = 0x5EED_2019;

/// Parse the argument vector (without the program name).
pub fn parse_args(args: &[String]) -> ParsedArgs {
    let Some(sub) = args.first() else {
        return Err(format!("missing subcommand\n{USAGE}"));
    };
    let rest = &args[1..];
    match sub.as_str() {
        "study" => {
            let (mut flags, pos) = split_flags(rest)?;
            expect_no_positionals(&pos)?;
            let profile = take_bool_flag(&mut flags, "profile");
            let renames = take_bool_flag(&mut flags, "renames");
            let from_dir = flag_value(&flags, "from").map(PathBuf::from);
            let shards_dir = flag_value(&flags, "shards").map(PathBuf::from);
            if from_dir.is_some() && shards_dir.is_some() {
                return Err("study takes at most one of --from / --shards".to_string());
            }
            let rename_threshold = flag_f64(&flags, "rename-threshold")?;
            if rename_threshold.is_some() && !renames {
                return Err("--rename-threshold requires --renames".to_string());
            }
            if let Some(t) = rename_threshold {
                if !(0.0..=1.0).contains(&t) {
                    return Err(format!("--rename-threshold must be in [0, 1], got {t}"));
                }
            }
            Ok(Command::Study {
                seed: flag_u64(&flags, "seed")?.unwrap_or(DEFAULT_SEED),
                csv_dir: flag_value(&flags, "csv").map(PathBuf::from),
                from_dir,
                shards_dir,
                max_resident: flag_u64(&flags, "max-resident")?.map(|v| v as usize),
                workers: flag_u64(&flags, "workers")?.map(|v| v as usize),
                profile,
                store: flag_value(&flags, "store").map(PathBuf::from),
                renames,
                rename_threshold,
            })
        }
        "corpus" => {
            let (flags, pos) = split_flags(rest)?;
            match pos.first().map(String::as_str) {
                Some("gen") => {
                    expect_no_positionals(&pos[1..])?;
                    Ok(Command::Corpus {
                        action: CorpusAction::Gen {
                            out: flag_value(&flags, "out")
                                .map(PathBuf::from)
                                .ok_or("corpus gen requires --out DIR")?,
                            projects: flag_u64(&flags, "projects")?
                                .ok_or("corpus gen requires --projects N")?
                                as usize,
                            shard_size: flag_u64(&flags, "shard-size")?.unwrap_or(1000)
                                as usize,
                            seed: flag_u64(&flags, "seed")?.unwrap_or(DEFAULT_SEED),
                        },
                    })
                }
                Some("info") => {
                    expect_no_flags(&flags)?;
                    let [_, dir] = positional::<2>(&pos, "info <DIR>")?;
                    Ok(Command::Corpus {
                        action: CorpusAction::Info { dir: PathBuf::from(dir) },
                    })
                }
                Some(other) => Err(format!("unknown corpus action {other:?}\n{USAGE}")),
                None => Err(format!("expected <gen|info>\n{USAGE}")),
            }
        }
        "store" => {
            let (flags, pos) = split_flags(rest)?;
            let [action, dir] = positional::<2>(&pos, "<stats|verify|gc> <DIR>")?;
            let action = match action.as_str() {
                "stats" => StoreAction::Stats,
                "verify" => StoreAction::Verify,
                "gc" => StoreAction::Gc {
                    max_bytes: flag_u64(&flags, "max-bytes")?
                        .ok_or("store gc requires --max-bytes N")?,
                },
                other => return Err(format!("unknown store action {other:?}\n{USAGE}")),
            };
            if !matches!(action, StoreAction::Gc { .. }) {
                expect_no_flags(&flags)?;
            }
            Ok(Command::Store { action, dir: PathBuf::from(dir) })
        }
        "serve" => {
            let (flags, pos) = split_flags(rest)?;
            expect_no_positionals(&pos)?;
            Ok(Command::Serve {
                addr: flag_value(&flags, "addr").map(String::from),
                store: flag_value(&flags, "store").map(PathBuf::from),
            })
        }
        "check" => {
            let (mut flags, pos) = split_flags(rest)?;
            expect_no_positionals(&pos)?;
            let quick = take_bool_flag(&mut flags, "quick");
            let full = take_bool_flag(&mut flags, "full");
            if quick && full {
                return Err("check takes at most one of --quick / --full".to_string());
            }
            Ok(Command::Check {
                full,
                seed: flag_u64(&flags, "seed")?.unwrap_or(DEFAULT_SEED),
                repro_dir: flag_value(&flags, "repro").map(PathBuf::from),
            })
        }
        "measure" => {
            let (flags, pos) = split_flags(rest)?;
            expect_no_flags(&flags)?;
            let [dir] = positional::<1>(&pos, "<PROJECT-DIR>")?;
            Ok(Command::Measure { dir: PathBuf::from(dir) })
        }
        "generate" => {
            let (flags, pos) = split_flags(rest)?;
            let [dir] = positional::<1>(&pos, "<OUT-DIR>")?;
            Ok(Command::Generate {
                dir: PathBuf::from(dir),
                seed: flag_u64(&flags, "seed")?.unwrap_or(DEFAULT_SEED),
                per_taxon: flag_u64(&flags, "per-taxon")?.map(|v| v as usize),
            })
        }
        "case-study" => {
            expect_empty(rest)?;
            Ok(Command::CaseStudy)
        }
        "compat" => {
            let (flags, pos) = split_flags(rest)?;
            match pos.len() {
                2 => {
                    let dialect = flag_dialect(&flags)?;
                    let [old, new] = positional::<2>(&pos, "<OLD.sql> <NEW.sql>")?;
                    if flag_value(&flags, "shards").is_some() {
                        return Err("--shards is corpus mode: drop the DDL files".to_string());
                    }
                    Ok(Command::Compat {
                        mode: CompatMode::Single {
                            old: PathBuf::from(old),
                            new: PathBuf::from(new),
                            dialect,
                            src_dir: flag_value(&flags, "src").map(PathBuf::from),
                        },
                    })
                }
                0 => {
                    let shards_dir = flag_value(&flags, "shards").map(PathBuf::from);
                    let projects = flag_u64(&flags, "projects")?.map(|v| v as usize);
                    if shards_dir.is_some() && projects.is_some() {
                        return Err(
                            "--projects sizes a generated corpus; --shards reads one from disk"
                                .to_string(),
                        );
                    }
                    Ok(Command::Compat {
                        mode: CompatMode::Corpus {
                            shards_dir,
                            seed: flag_u64(&flags, "seed")?.unwrap_or(DEFAULT_SEED),
                            projects,
                        },
                    })
                }
                _ => Err(format!(
                    "compat takes <OLD.sql> <NEW.sql> or no positionals, got {}\n{USAGE}",
                    pos.len()
                )),
            }
        }
        "diff" => {
            let (mut flags, pos) = split_flags(rest)?;
            let smo = take_bool_flag(&mut flags, "smo");
            let dialect = flag_dialect(&flags)?;
            let [old, new] = positional::<2>(&pos, "<OLD.sql> <NEW.sql>")?;
            Ok(Command::Diff { old: PathBuf::from(old), new: PathBuf::from(new), dialect, smo })
        }
        "impact" => {
            let (flags, pos) = split_flags(rest)?;
            let dialect = flag_dialect(&flags)?;
            let [old, new, src] = positional::<3>(&pos, "<OLD.sql> <NEW.sql> <SRC-DIR>")?;
            Ok(Command::Impact {
                old: PathBuf::from(old),
                new: PathBuf::from(new),
                src_dir: PathBuf::from(src),
                dialect,
            })
        }
        "check-queries" => {
            let (flags, pos) = split_flags(rest)?;
            let dialect = flag_dialect(&flags)?;
            let [old, new, src] = positional::<3>(&pos, "<OLD.sql> <NEW.sql> <SRC-DIR>")?;
            Ok(Command::CheckQueries {
                old: PathBuf::from(old),
                new: PathBuf::from(new),
                src_dir: PathBuf::from(src),
                dialect,
            })
        }
        "parse" => {
            let (flags, pos) = split_flags(rest)?;
            let dialect = flag_dialect(&flags)?;
            let [file] = positional::<1>(&pos, "<FILE.sql>")?;
            Ok(Command::Parse { file: PathBuf::from(file), dialect })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    }
}

/// Parsed `--flag value` pairs (bare flags carry `None`).
type Flags = Vec<(String, Option<String>)>;

/// Split `--flag value` pairs (and bare `--flag`) from positionals.
fn split_flags(args: &[String]) -> Result<(Flags, Vec<String>), String> {
    let mut flags = Vec::new();
    let mut pos = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            // Boolean flags take no value; value flags take the next token
            // unless it is itself a flag.
            let is_bool = matches!(name, "smo" | "profile" | "quick" | "full" | "renames");
            let next_is_value =
                i + 1 < args.len() && !args[i + 1].starts_with("--") && !is_bool;
            if next_is_value {
                flags.push((name.to_string(), Some(args[i + 1].clone())));
                i += 2;
            } else {
                flags.push((name.to_string(), None));
                i += 1;
            }
        } else {
            pos.push(args[i].clone());
            i += 1;
        }
    }
    Ok((flags, pos))
}

fn flag_value<'a>(flags: &'a [(String, Option<String>)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
}

fn flag_u64(flags: &[(String, Option<String>)], name: &str) -> Result<Option<u64>, String> {
    match flags.iter().find(|(n, _)| n == name) {
        None => Ok(None),
        Some((_, Some(v))) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("--{name} expects a number, got {v:?}")),
        Some((_, None)) => Err(format!("--{name} expects a value")),
    }
}

fn flag_f64(flags: &[(String, Option<String>)], name: &str) -> Result<Option<f64>, String> {
    match flags.iter().find(|(n, _)| n == name) {
        None => Ok(None),
        Some((_, Some(v))) => v
            .parse::<f64>()
            .map(Some)
            .map_err(|_| format!("--{name} expects a number, got {v:?}")),
        Some((_, None)) => Err(format!("--{name} expects a value")),
    }
}

fn flag_dialect(flags: &[(String, Option<String>)]) -> Result<Dialect, String> {
    match flag_value(flags, "dialect") {
        None => Ok(Dialect::Generic),
        Some(v) => Dialect::from_name(v).ok_or_else(|| format!("unknown dialect {v:?}")),
    }
}

fn take_bool_flag(flags: &mut Vec<(String, Option<String>)>, name: &str) -> bool {
    let before = flags.len();
    flags.retain(|(n, _)| n != name);
    flags.len() != before
}

fn positional<const N: usize>(pos: &[String], what: &str) -> Result<[String; N], String> {
    if pos.len() != N {
        return Err(format!("expected {what}, got {} positional argument(s)", pos.len()));
    }
    Ok(std::array::from_fn(|i| pos[i].clone()))
}

fn expect_no_positionals(pos: &[String]) -> Result<(), String> {
    if pos.is_empty() {
        Ok(())
    } else {
        Err(format!("unexpected argument {:?}", pos[0]))
    }
}

fn expect_no_flags(flags: &[(String, Option<String>)]) -> Result<(), String> {
    if flags.is_empty() {
        Ok(())
    } else {
        Err(format!("unexpected flag --{}", flags[0].0))
    }
}

fn expect_empty(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(format!("unexpected argument {:?}", args[0]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> ParsedArgs {
        parse_args(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn study_defaults() {
        assert_eq!(
            parse(&["study"]).unwrap(),
            Command::Study {
                seed: DEFAULT_SEED,
                csv_dir: None,
                from_dir: None,
                shards_dir: None,
                max_resident: None,
                workers: None,
                profile: false,
                store: None,
                renames: false,
                rename_threshold: None,
            }
        );
    }

    #[test]
    fn study_with_flags() {
        assert_eq!(
            parse(&["study", "--seed", "42", "--csv", "out"]).unwrap(),
            Command::Study {
                seed: 42,
                csv_dir: Some(PathBuf::from("out")),
                from_dir: None,
                shards_dir: None,
                max_resident: None,
                workers: None,
                profile: false,
                store: None,
                renames: false,
                rename_threshold: None,
            }
        );
    }

    #[test]
    fn study_engine_flags() {
        // --profile is boolean: it must not swallow a following value flag's
        // token, regardless of position.
        assert_eq!(
            parse(&["study", "--profile", "--workers", "4", "--seed", "9"]).unwrap(),
            Command::Study {
                seed: 9,
                csv_dir: None,
                from_dir: None,
                shards_dir: None,
                max_resident: None,
                workers: Some(4),
                profile: true,
                store: None,
                renames: false,
                rename_threshold: None,
            }
        );
        assert_eq!(
            parse(&["study", "--workers", "2", "--profile"]).unwrap(),
            Command::Study {
                seed: DEFAULT_SEED,
                csv_dir: None,
                from_dir: None,
                shards_dir: None,
                max_resident: None,
                workers: Some(2),
                profile: true,
                store: None,
                renames: false,
                rename_threshold: None,
            }
        );
        assert!(parse(&["study", "--workers", "many"]).is_err());
    }

    #[test]
    fn study_sharded_flags() {
        let Command::Study { shards_dir, max_resident, .. } =
            parse(&["study", "--shards", "corpus", "--max-resident", "500"]).unwrap()
        else {
            panic!("expected study");
        };
        assert_eq!(shards_dir, Some(PathBuf::from("corpus")));
        assert_eq!(max_resident, Some(500));
        // --from and --shards are mutually exclusive.
        assert!(parse(&["study", "--from", "a", "--shards", "b"]).is_err());
        assert!(parse(&["study", "--max-resident", "lots"]).is_err());
    }

    #[test]
    fn corpus_subcommands() {
        assert_eq!(
            parse(&["corpus", "gen", "--projects", "2000", "--out", "dir"]).unwrap(),
            Command::Corpus {
                action: CorpusAction::Gen {
                    out: PathBuf::from("dir"),
                    projects: 2000,
                    shard_size: 1000,
                    seed: DEFAULT_SEED,
                },
            }
        );
        assert_eq!(
            parse(&[
                "corpus",
                "gen",
                "--projects",
                "100",
                "--shard-size",
                "25",
                "--seed",
                "7",
                "--out",
                "dir",
            ])
            .unwrap(),
            Command::Corpus {
                action: CorpusAction::Gen {
                    out: PathBuf::from("dir"),
                    projects: 100,
                    shard_size: 25,
                    seed: 7,
                },
            }
        );
        assert_eq!(
            parse(&["corpus", "info", "dir"]).unwrap(),
            Command::Corpus { action: CorpusAction::Info { dir: PathBuf::from("dir") } }
        );
        assert!(parse(&["corpus", "gen", "--out", "dir"]).is_err()); // no --projects
        assert!(parse(&["corpus", "gen", "--projects", "10"]).is_err()); // no --out
        assert!(parse(&["corpus", "info"]).is_err());
        assert!(parse(&["corpus", "squash", "dir"]).is_err());
        assert!(parse(&["corpus"]).is_err());
    }

    #[test]
    fn study_store_flag() {
        let Command::Study { store, profile, .. } =
            parse(&["study", "--store", "cache", "--profile"]).unwrap()
        else {
            panic!("expected study");
        };
        assert_eq!(store, Some(PathBuf::from("cache")));
        assert!(profile);
    }

    #[test]
    fn study_rename_flags() {
        // --renames is boolean: it must not swallow the next flag's token.
        let Command::Study { renames, rename_threshold, seed, .. } =
            parse(&["study", "--renames", "--seed", "7"]).unwrap()
        else {
            panic!("expected study");
        };
        assert!(renames);
        assert_eq!(rename_threshold, None);
        assert_eq!(seed, 7);

        let Command::Study { renames, rename_threshold, .. } =
            parse(&["study", "--renames", "--rename-threshold", "0.75"]).unwrap()
        else {
            panic!("expected study");
        };
        assert!(renames);
        assert_eq!(rename_threshold, Some(0.75));

        // A threshold needs the flag, must be numeric, and must be in [0, 1].
        assert!(parse(&["study", "--rename-threshold", "0.7"]).is_err());
        assert!(parse(&["study", "--renames", "--rename-threshold", "hot"]).is_err());
        assert!(parse(&["study", "--renames", "--rename-threshold", "1.5"]).is_err());
    }

    #[test]
    fn store_subcommands() {
        assert_eq!(
            parse(&["store", "stats", "cache"]).unwrap(),
            Command::Store { action: StoreAction::Stats, dir: PathBuf::from("cache") }
        );
        assert_eq!(
            parse(&["store", "verify", "cache"]).unwrap(),
            Command::Store { action: StoreAction::Verify, dir: PathBuf::from("cache") }
        );
        assert_eq!(
            parse(&["store", "gc", "cache", "--max-bytes", "1024"]).unwrap(),
            Command::Store {
                action: StoreAction::Gc { max_bytes: 1024 },
                dir: PathBuf::from("cache"),
            }
        );
        // gc without a budget, unknown actions, and stray flags all error.
        assert!(parse(&["store", "gc", "cache"]).is_err());
        assert!(parse(&["store", "compact", "cache"]).is_err());
        assert!(parse(&["store", "stats"]).is_err());
        assert!(parse(&["store", "stats", "cache", "--max-bytes", "9"]).is_err());
    }

    #[test]
    fn serve_flags() {
        assert_eq!(parse(&["serve"]).unwrap(), Command::Serve { addr: None, store: None });
        assert_eq!(
            parse(&["serve", "--addr", "127.0.0.1:0", "--store", "cache"]).unwrap(),
            Command::Serve {
                addr: Some("127.0.0.1:0".to_string()),
                store: Some(PathBuf::from("cache")),
            }
        );
        assert!(parse(&["serve", "extra"]).is_err());
    }

    #[test]
    fn check_flags() {
        assert_eq!(
            parse(&["check"]).unwrap(),
            Command::Check { full: false, seed: DEFAULT_SEED, repro_dir: None }
        );
        assert_eq!(
            parse(&["check", "--quick", "--seed", "42"]).unwrap(),
            Command::Check { full: false, seed: 42, repro_dir: None }
        );
        // --full is boolean: it must not swallow the next flag's token.
        assert_eq!(
            parse(&["check", "--full", "--seed", "7", "--repro", "out"]).unwrap(),
            Command::Check { full: true, seed: 7, repro_dir: Some(PathBuf::from("out")) }
        );
        assert!(parse(&["check", "--quick", "--full"]).is_err());
        assert!(parse(&["check", "extra"]).is_err());
    }

    #[test]
    fn measure_needs_dir() {
        assert!(parse(&["measure"]).is_err());
        assert_eq!(
            parse(&["measure", "proj/"]).unwrap(),
            Command::Measure { dir: PathBuf::from("proj/") }
        );
        assert!(parse(&["measure", "a", "b"]).is_err());
    }

    #[test]
    fn generate_flags() {
        assert_eq!(
            parse(&["generate", "corpus", "--per-taxon", "3", "--seed", "7"]).unwrap(),
            Command::Generate { dir: PathBuf::from("corpus"), seed: 7, per_taxon: Some(3) }
        );
    }

    #[test]
    fn compat_single_diff_mode() {
        assert_eq!(
            parse(&["compat", "a.sql", "b.sql", "--dialect", "mysql", "--src", "src"]).unwrap(),
            Command::Compat {
                mode: CompatMode::Single {
                    old: PathBuf::from("a.sql"),
                    new: PathBuf::from("b.sql"),
                    dialect: Dialect::MySql,
                    src_dir: Some(PathBuf::from("src")),
                },
            }
        );
        assert_eq!(
            parse(&["compat", "a.sql", "b.sql"]).unwrap(),
            Command::Compat {
                mode: CompatMode::Single {
                    old: PathBuf::from("a.sql"),
                    new: PathBuf::from("b.sql"),
                    dialect: Dialect::Generic,
                    src_dir: None,
                },
            }
        );
        assert!(parse(&["compat", "a.sql"]).is_err());
        assert!(parse(&["compat", "a.sql", "b.sql", "c.sql"]).is_err());
        assert!(parse(&["compat", "a.sql", "b.sql", "--shards", "dir"]).is_err());
    }

    #[test]
    fn compat_corpus_mode() {
        assert_eq!(
            parse(&["compat"]).unwrap(),
            Command::Compat {
                mode: CompatMode::Corpus {
                    shards_dir: None,
                    seed: DEFAULT_SEED,
                    projects: None
                },
            }
        );
        assert_eq!(
            parse(&["compat", "--seed", "42", "--projects", "24"]).unwrap(),
            Command::Compat {
                mode: CompatMode::Corpus { shards_dir: None, seed: 42, projects: Some(24) },
            }
        );
        assert_eq!(
            parse(&["compat", "--shards", "corpus"]).unwrap(),
            Command::Compat {
                mode: CompatMode::Corpus {
                    shards_dir: Some(PathBuf::from("corpus")),
                    seed: DEFAULT_SEED,
                    projects: None,
                },
            }
        );
        // --shards and --projects describe different corpora: reject both.
        assert!(parse(&["compat", "--shards", "corpus", "--projects", "9"]).is_err());
    }

    #[test]
    fn diff_with_dialect_and_smo() {
        assert_eq!(
            parse(&["diff", "a.sql", "b.sql", "--dialect", "mysql", "--smo"]).unwrap(),
            Command::Diff {
                old: PathBuf::from("a.sql"),
                new: PathBuf::from("b.sql"),
                dialect: Dialect::MySql,
                smo: true,
            }
        );
        // Flag order independent.
        assert_eq!(
            parse(&["diff", "--smo", "a.sql", "--dialect", "postgres", "b.sql"]).unwrap(),
            Command::Diff {
                old: PathBuf::from("a.sql"),
                new: PathBuf::from("b.sql"),
                dialect: Dialect::Postgres,
                smo: true,
            }
        );
    }

    #[test]
    fn impact_subcommand() {
        assert_eq!(
            parse(&["impact", "a.sql", "b.sql", "src", "--dialect", "mysql"]).unwrap(),
            Command::Impact {
                old: PathBuf::from("a.sql"),
                new: PathBuf::from("b.sql"),
                src_dir: PathBuf::from("src"),
                dialect: Dialect::MySql,
            }
        );
        assert!(parse(&["impact", "a.sql", "b.sql"]).is_err());
    }

    #[test]
    fn check_queries_subcommand() {
        assert!(matches!(
            parse(&["check-queries", "a.sql", "b.sql", "src"]).unwrap(),
            Command::CheckQueries { .. }
        ));
        assert!(parse(&["check-queries", "a.sql"]).is_err());
    }

    #[test]
    fn parse_subcommand() {
        assert_eq!(
            parse(&["parse", "schema.sql"]).unwrap(),
            Command::Parse { file: PathBuf::from("schema.sql"), dialect: Dialect::Generic }
        );
    }

    #[test]
    fn errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["unknown"]).is_err());
        assert!(parse(&["study", "--seed", "abc"]).is_err());
        assert!(parse(&["study", "--seed"]).is_err());
        assert!(parse(&["diff", "a.sql", "b.sql", "--dialect", "oracle"]).is_err());
        assert!(parse(&["case-study", "extra"]).is_err());
        assert!(parse(&["measure", "--weird", "x"]).is_err());
    }

    #[test]
    fn help_variants() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(parse(&[h]).unwrap(), Command::Help);
        }
    }
}
