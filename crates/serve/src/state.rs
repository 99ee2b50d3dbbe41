//! The daemon's state: a warm [`IncrementalStudy`] plus snapshot
//! persistence, with one entry point per protocol command.
//!
//! Request handling is plain synchronous code over `&mut self` — the TCP
//! layer serializes access behind a mutex — so every command is unit
//! testable without a socket.

use crate::protocol::{CompatAnswer, Request, Response, TaxonCount};
use coevo_compat::{classify_step, CompatLevel};
use coevo_ddl::fingerprint::content_hash;
use coevo_ddl::Dialect;
use coevo_diff::{diff_constraints, diff_schemas};
use coevo_engine::{IncrementalStudy, ProjectEvent, ProjectSnapshot};
use coevo_report::{render_all_figures, research_question_answers};
use coevo_store::{InputDigest, Lookup, ResultStore, StoreError};
use coevo_taxa::{Taxon, TaxonomyConfig};
use std::collections::BTreeMap;
use std::path::Path;

/// Snapshot a project automatically once this many events have been applied
/// to it since its last snapshot. Crash-loss is bounded to fewer events than
/// this per project; `snapshot` and `shutdown` flush the remainder.
pub const SNAPSHOT_EVERY: u64 = 256;

/// Domain separator of the `vcs` digest word for serve snapshots.
const SNAPSHOT_STREAM: &[u8] = b"coevo-serve-project-snapshot";
/// Domain separator of the `config` digest word; bump with the wire format.
const SNAPSHOT_FORMAT: &[u8] = b"serve-snapshot-format-1";

/// The subdirectory of the store root the daemon keeps its snapshots in —
/// separate from the batch engine's measure entries, so neither side ever
/// quarantines the other's payload type.
const SERVE_SUBDIR: &str = "serve";

/// Snapshot persistence over a [`ResultStore`]: one entry per project,
/// addressed by the project name so a newer snapshot atomically replaces
/// the older one.
pub struct SnapshotStore {
    store: ResultStore,
}

impl SnapshotStore {
    /// Open (creating if needed) the snapshot store under `root`.
    pub fn open(root: &Path) -> Result<Self, StoreError> {
        Ok(Self { store: ResultStore::open(root.join(SERVE_SUBDIR))? })
    }

    fn digest_for(name: &str) -> InputDigest {
        InputDigest::new(
            content_hash(name.as_bytes()),
            content_hash(SNAPSHOT_STREAM),
            content_hash(SNAPSHOT_FORMAT),
        )
    }

    /// Atomically publish one project's snapshot.
    pub fn save(&self, snap: &ProjectSnapshot) -> Result<(), StoreError> {
        self.store.put(&Self::digest_for(&snap.name), snap)
    }

    /// Load every snapshot the store holds. Corrupt or stale entries are
    /// quarantined by the store and skipped — the daemon restarts with
    /// whatever survived, and re-ingestion repairs the rest.
    pub fn load_all(&self) -> Result<Vec<ProjectSnapshot>, StoreError> {
        let mut snaps = Vec::new();
        for digest in self.store.digests()? {
            if let Lookup::Hit(snap) = self.store.get::<ProjectSnapshot>(&digest) {
                snaps.push(snap);
            }
        }
        Ok(snaps)
    }
}

/// The daemon state behind every connection.
pub struct ServeState {
    study: IncrementalStudy,
    store: Option<SnapshotStore>,
    /// Events applied per project since its last snapshot.
    unsaved: BTreeMap<String, u64>,
}

impl ServeState {
    /// A fresh state; with a store, previously snapshotted projects are
    /// restored before the first request.
    pub fn open(
        taxonomy: TaxonomyConfig,
        store_dir: Option<&Path>,
    ) -> Result<Self, StoreError> {
        let mut state = Self {
            study: IncrementalStudy::new(taxonomy),
            store: None,
            unsaved: BTreeMap::new(),
        };
        if let Some(dir) = store_dir {
            let store = SnapshotStore::open(dir)?;
            for snap in store.load_all()? {
                state.study.restore(snap);
            }
            state.store = Some(store);
        }
        Ok(state)
    }

    /// Number of projects restored or ingested so far.
    pub fn projects(&self) -> usize {
        self.study.len()
    }

    /// Handle one request. Never panics on malformed input; every failure
    /// is a `Response::err`.
    pub fn handle(&mut self, req: &Request) -> Response {
        match req.cmd.as_str() {
            "ping" => Response::ok(),
            "ingest" => self.ingest(req),
            "project" => self.project(req),
            "summary" => self.summary(),
            "taxa" => self.taxa(),
            "compat" => self.compat(req),
            "snapshot" => self.snapshot_now(),
            "shutdown" => Response::ok(),
            other => Response::err(format!("unknown command {other:?}")),
        }
    }

    /// Handle one raw request line.
    pub fn handle_line(&mut self, line: &str) -> Response {
        match Request::parse(line) {
            Ok(req) => self.handle(&req),
            Err(e) => Response::err(e),
        }
    }

    fn ingest(&mut self, req: &Request) -> Response {
        let Some(name) = req.project.as_deref() else {
            return Response::err("ingest requires a project");
        };
        let dialect = match req.dialect.as_deref() {
            None => Dialect::Generic,
            Some(d) => match Dialect::from_name(d) {
                Some(d) => d,
                None => return Response::err(format!("unknown dialect {d:?}")),
            },
        };
        let taxon = match req.taxon.as_deref() {
            None => None,
            Some(t) => match Taxon::parse(t) {
                Some(t) => Some(t),
                None => return Response::err(format!("unknown taxon {t:?}")),
            },
        };
        let wire_events = req.events.as_deref().unwrap_or(&[]);
        let mut events: Vec<ProjectEvent> = Vec::with_capacity(wire_events.len());
        for (i, ev) in wire_events.iter().enumerate() {
            match ev.decode() {
                Ok(ev) => events.push(ev),
                Err(e) => return Response::err(format!("event #{i}: {e}")),
            }
        }
        // Register the project (and check the dialect) even for an empty
        // batch, then apply events one at a time so the response can report
        // exactly how far a failing batch got.
        let mut applied: u64 = 0;
        let mut error = match self.study.ingest(name, dialect, taxon, []) {
            Ok(_) => None,
            Err(e) => Some(e.to_string()),
        };
        if error.is_none() {
            for event in events {
                match self.study.ingest(name, dialect, None, [event]) {
                    Ok(_) => applied += 1,
                    Err(e) => {
                        error = Some(e.to_string());
                        break;
                    }
                }
            }
        }
        if applied > 0 {
            *self.unsaved.entry(name.to_string()).or_insert(0) += applied;
            self.autosnapshot(name);
        }
        let state = self.study.project(name);
        Response {
            ok: error.is_none(),
            error,
            applied: Some(applied),
            pending: state
                .and_then(|s| s.pending_reason())
                .map(|reason| vec![format!("{name}: {reason}")]),
            ..Response::ok()
        }
    }

    fn project(&mut self, req: &Request) -> Response {
        let Some(name) = req.project.as_deref() else {
            return Response::err("project requires a project name");
        };
        let taxonomy = *self.study.taxonomy();
        let Some(state) = self.study.project_mut(name) else {
            return Response::err(format!("unknown project {name:?}"));
        };
        match state.measures(&taxonomy) {
            Some(measures) => Response { measures: Some(measures), ..Response::ok() },
            None => Response {
                pending: state.pending_reason().map(|reason| vec![format!("{name}: {reason}")]),
                ..Response::ok()
            },
        }
    }

    fn summary(&mut self) -> Response {
        let pending: Vec<String> = self.study.pending().into_iter().map(String::from).collect();
        let results = self.study.results();
        let report = format!(
            "{}\n{}",
            render_all_figures(&results),
            research_question_answers(&results)
        );
        Response {
            projects: Some(self.study.len() as u64),
            pending: Some(pending),
            report: Some(report),
            ..Response::ok()
        }
    }

    fn taxa(&mut self) -> Response {
        let mut counts: BTreeMap<Taxon, u64> = BTreeMap::new();
        for m in self.study.measures() {
            *counts.entry(m.taxon).or_insert(0) += 1;
        }
        let taxa = Taxon::ALL
            .into_iter()
            .map(|t| TaxonCount {
                taxon: t.slug().to_string(),
                count: counts.get(&t).copied().unwrap_or(0),
            })
            .collect();
        Response { taxa: Some(taxa), ..Response::ok() }
    }

    /// Answer `compat` from warm state. With a `ddl` field: parse the
    /// candidate with the project's dialect, diff it against the project's
    /// latest warm schema, and classify that one step ("is this DDL safe to
    /// ship?"). Without `ddl`: the compatibility profile of the project's
    /// whole warm history (evolution steps only — birth excluded), with the
    /// level folded over every step.
    fn compat(&mut self, req: &Request) -> Response {
        let Some(name) = req.project.as_deref() else {
            return Response::err("compat requires a project");
        };
        let Some(state) = self.study.project(name) else {
            return Response::err(format!("unknown project {name:?}"));
        };
        let versions = state.versions();
        let Some(head) = versions.last() else {
            return Response::err(format!("project {name:?} has no DDL versions yet"));
        };
        let answer = match req.ddl.as_deref() {
            Some(ddl) => {
                let candidate = match coevo_ddl::parse_schema(ddl, state.dialect()) {
                    Ok(s) => s,
                    Err(e) => return Response::err(format!("candidate DDL: {e}")),
                };
                let old = head.schema.as_ref();
                let delta = diff_schemas(old, &candidate);
                let constraints = diff_constraints(old, &candidate);
                let class = classify_step(&candidate, &delta, &constraints);
                CompatAnswer {
                    level: class.level.to_string(),
                    rules: class.rule_names().iter().map(|r| r.to_string()).collect(),
                    steps: 0,
                    breaking_steps: if class.level.is_breaking() { 1 } else { 0 },
                }
            }
            None => {
                let deltas = state.deltas();
                let mut level = CompatLevel::None;
                let mut rules: Vec<String> = Vec::new();
                let mut steps = 0u64;
                let mut breaking = 0u64;
                for i in 1..versions.len() {
                    let old = versions[i - 1].schema.as_ref();
                    let new = versions[i].schema.as_ref();
                    let constraints = diff_constraints(old, new);
                    let class = classify_step(new, &deltas[i].delta, &constraints);
                    steps += 1;
                    if class.level.is_breaking() {
                        breaking += 1;
                    }
                    level = level.combine(class.level);
                    for r in class.rule_names() {
                        if !rules.iter().any(|x| x == r) {
                            rules.push(r.to_string());
                        }
                    }
                }
                CompatAnswer {
                    level: level.to_string(),
                    rules,
                    steps,
                    breaking_steps: breaking,
                }
            }
        };
        Response { compat: Some(answer), ..Response::ok() }
    }

    /// Snapshot one project now if enough events accumulated since its last
    /// snapshot. Persistence failures never fail the ingest: the events are
    /// already applied in memory, and the next snapshot retries.
    fn autosnapshot(&mut self, name: &str) {
        let due = self.unsaved.get(name).is_some_and(|&n| n >= SNAPSHOT_EVERY);
        if due {
            let _ = self.snapshot_project(name);
        }
    }

    fn snapshot_project(&mut self, name: &str) -> Result<bool, StoreError> {
        let Some(store) = &self.store else {
            return Ok(false);
        };
        let Some(state) = self.study.project(name) else {
            return Ok(false);
        };
        store.save(&state.snapshot())?;
        self.unsaved.remove(name);
        Ok(true)
    }

    /// Persist every project with unsaved events. Called by the `snapshot`
    /// command and on shutdown.
    pub fn flush_snapshots(&mut self) -> Result<u64, StoreError> {
        let dirty: Vec<String> = self.unsaved.keys().cloned().collect();
        let mut written = 0;
        for name in dirty {
            if self.snapshot_project(&name)? {
                written += 1;
            }
        }
        Ok(written)
    }

    fn snapshot_now(&mut self) -> Response {
        if self.store.is_none() {
            return Response::err("no snapshot store configured (start with --store DIR)");
        }
        match self.flush_snapshots() {
            Ok(written) => Response { written: Some(written), ..Response::ok() },
            Err(e) => Response::err(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireEvent;

    fn ingest_request(project: &str, events: Vec<WireEvent>) -> Request {
        Request {
            cmd: "ingest".into(),
            project: Some(project.into()),
            dialect: None,
            taxon: None,
            ddl: None,
            events: Some(events),
        }
    }

    fn complete_project(state: &mut ServeState, name: &str) {
        let resp = state.handle(&ingest_request(
            name,
            vec![
                WireEvent::commit("2020-01-05 00:00:00 +0000", 3),
                WireEvent::ddl("2020-01-10 00:00:00 +0000", "CREATE TABLE t (a INT);"),
                WireEvent::commit("2020-03-05 00:00:00 +0000", 2),
            ],
        ));
        assert!(resp.ok, "{:?}", resp.error);
    }

    #[test]
    fn compat_candidate_ddl_is_classified_against_warm_head() {
        let mut state = ServeState::open(TaxonomyConfig::default(), None).unwrap();
        complete_project(&mut state, "a/b");
        // Dropping column `a` is a read-surface removal: BREAKING.
        let resp = state.handle(&Request {
            project: Some("a/b".into()),
            ddl: Some("CREATE TABLE t (b INT);".into()),
            ..Request::bare("compat")
        });
        assert!(resp.ok, "{:?}", resp.error);
        let answer = resp.compat.expect("compat answer");
        assert_eq!(answer.level, "BREAKING");
        assert!(answer.rules.iter().any(|r| r == "attr-ejected"), "{:?}", answer.rules);
        assert_eq!(answer.breaking_steps, 1);

        // Adding a nullable column is BACKWARD.
        let resp = state.handle(&Request {
            project: Some("a/b".into()),
            ddl: Some("CREATE TABLE t (a INT, b INT);".into()),
            ..Request::bare("compat")
        });
        let answer = resp.compat.expect("compat answer");
        assert_eq!(answer.level, "BACKWARD");
        assert_eq!(answer.breaking_steps, 0);
    }

    #[test]
    fn compat_without_ddl_profiles_the_warm_history() {
        let mut state = ServeState::open(TaxonomyConfig::default(), None).unwrap();
        let resp = state.handle(&ingest_request(
            "a/b",
            vec![
                WireEvent::commit("2020-01-05 00:00:00 +0000", 3),
                WireEvent::ddl("2020-01-10 00:00:00 +0000", "CREATE TABLE t (a INT);"),
                WireEvent::ddl(
                    "2020-02-10 00:00:00 +0000",
                    "CREATE TABLE t (a INT, b VARCHAR(10));",
                ),
                WireEvent::ddl("2020-03-10 00:00:00 +0000", "CREATE TABLE t (b VARCHAR(10));"),
                WireEvent::commit("2020-03-15 00:00:00 +0000", 2),
            ],
        ));
        assert!(resp.ok, "{:?}", resp.error);
        let resp =
            state.handle(&Request { project: Some("a/b".into()), ..Request::bare("compat") });
        assert!(resp.ok, "{:?}", resp.error);
        let answer = resp.compat.expect("compat answer");
        // One BACKWARD add + one BREAKING eject folds to BREAKING.
        assert_eq!(answer.level, "BREAKING");
        assert_eq!(answer.steps, 2);
        assert_eq!(answer.breaking_steps, 1);
        assert!(answer.rules.iter().any(|r| r == "attr-add-optional"));
        assert!(answer.rules.iter().any(|r| r == "attr-ejected"));
    }

    #[test]
    fn compat_error_paths() {
        let mut state = ServeState::open(TaxonomyConfig::default(), None).unwrap();
        let resp = state.handle(&Request::bare("compat"));
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("requires a project"));

        let resp = state
            .handle(&Request { project: Some("no/such".into()), ..Request::bare("compat") });
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("unknown project"));

        complete_project(&mut state, "a/b");
        let resp = state.handle(&Request {
            project: Some("a/b".into()),
            ddl: Some("CREATE TABLE (((".into()),
            ..Request::bare("compat")
        });
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("candidate DDL"));
    }

    #[test]
    fn ping_and_unknown_commands() {
        let mut state = ServeState::open(TaxonomyConfig::default(), None).unwrap();
        assert!(state.handle(&Request::bare("ping")).ok);
        let resp = state.handle(&Request::bare("launch-missiles"));
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("unknown command"));
    }

    #[test]
    fn malformed_lines_answer_errors() {
        let mut state = ServeState::open(TaxonomyConfig::default(), None).unwrap();
        let resp = state.handle_line("this is not json");
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("bad request"));
    }

    #[test]
    fn ingest_then_project_returns_measures() {
        let mut state = ServeState::open(TaxonomyConfig::default(), None).unwrap();
        complete_project(&mut state, "a/b");
        let resp =
            state.handle(&Request { project: Some("a/b".into()), ..Request::bare("project") });
        assert!(resp.ok);
        let m = resp.measures.expect("measures");
        assert_eq!(m.name, "a/b");
        assert_eq!(m.months, 3);
        assert_eq!(m.project_total_activity, 5);
    }

    #[test]
    fn pending_project_reports_reason_not_measures() {
        let mut state = ServeState::open(TaxonomyConfig::default(), None).unwrap();
        let resp = state.handle(&ingest_request(
            "only/commits",
            vec![WireEvent::commit("2020-01-05 00:00:00 +0000", 1)],
        ));
        assert!(resp.ok);
        assert_eq!(resp.applied, Some(1));
        assert!(resp.pending.unwrap()[0].contains("no DDL versions"));
        let resp = state.handle(&Request {
            project: Some("only/commits".into()),
            ..Request::bare("project")
        });
        assert!(resp.ok);
        assert!(resp.measures.is_none());
        assert!(resp.pending.is_some());
    }

    #[test]
    fn rejected_event_reports_applied_prefix() {
        let mut state = ServeState::open(TaxonomyConfig::default(), None).unwrap();
        let resp = state.handle(&ingest_request(
            "a/b",
            vec![
                WireEvent::commit("2020-01-05 00:00:00 +0000", 1),
                WireEvent::ddl("2020-01-10 00:00:00 +0000", "CREATE TABLE t (a INT"),
            ],
        ));
        assert!(!resp.ok);
        assert_eq!(resp.applied, Some(1));
        // The typed IngestError's Display names the project and the stage.
        assert!(resp.error.unwrap().contains("ddl version"));
    }

    #[test]
    fn summary_and_taxa_cover_ingested_projects() {
        let mut state = ServeState::open(TaxonomyConfig::default(), None).unwrap();
        complete_project(&mut state, "a/b");
        complete_project(&mut state, "c/d");
        let resp = state.handle(&Request::bare("summary"));
        assert!(resp.ok);
        assert_eq!(resp.projects, Some(2));
        assert_eq!(resp.pending, Some(vec![]));
        assert!(resp.report.unwrap().contains("Figure 4"));
        let resp = state.handle(&Request::bare("taxa"));
        let taxa = resp.taxa.unwrap();
        assert_eq!(taxa.len(), Taxon::ALL.len());
        assert_eq!(taxa.iter().map(|t| t.count).sum::<u64>(), 2);
    }

    #[test]
    fn snapshot_without_store_is_an_error() {
        let mut state = ServeState::open(TaxonomyConfig::default(), None).unwrap();
        let resp = state.handle(&Request::bare("snapshot"));
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("--store"));
    }

    #[test]
    fn snapshots_survive_a_restart() {
        let dir = std::env::temp_dir().join(format!(
            "coevo_serve_state_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut state = ServeState::open(TaxonomyConfig::default(), Some(&dir)).unwrap();
        complete_project(&mut state, "a/b");
        let resp = state.handle(&Request::bare("snapshot"));
        assert_eq!(resp.written, Some(1));
        let expected = state
            .handle(&Request { project: Some("a/b".into()), ..Request::bare("project") })
            .measures
            .unwrap();
        drop(state);

        let mut revived = ServeState::open(TaxonomyConfig::default(), Some(&dir)).unwrap();
        assert_eq!(revived.projects(), 1);
        let resp = revived
            .handle(&Request { project: Some("a/b".into()), ..Request::bare("project") });
        assert_eq!(resp.measures, Some(expected));
        // The revived daemon keeps ingesting.
        let resp = revived.handle(&ingest_request(
            "a/b",
            vec![WireEvent::commit("2020-05-01 00:00:00 +0000", 1)],
        ));
        assert!(resp.ok);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
