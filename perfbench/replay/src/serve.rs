//! serve-mixed: the request handling of `coevo serve` (`ServeState` in
//! `coevo-serve`) over an `IncrementalStudy`, with a span around every
//! layer a request passes through.

use crate::section7::{study_results, FisherMemo};
use crate::{count, read, trace, Res};
use coevo_ddl::Dialect;
use coevo_engine::IncrementalStudy;
use coevo_report::{render_all_figures, research_question_answers};
use coevo_serve::{Request, Response, SnapshotStore, TaxonCount, SNAPSHOT_EVERY};
use coevo_taxa::{Taxon, TaxonomyConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

struct ServeReplay {
    study: IncrementalStudy,
    store: SnapshotStore,
    unsaved: BTreeMap<String, u64>,
    memo: FisherMemo,
}

impl ServeReplay {
    /// Answer one request line with one response line.
    fn handle(&mut self, line: &str) -> String {
        let _s = trace::span("serve.request");
        let response = match serde_json::from_str::<Request>(line) {
            Ok(req) => match req.cmd.as_str() {
                "ingest" => self.ingest(&req),
                "project" => self.project(&req),
                "summary" => self.summary(),
                "taxa" => self.taxa(),
                other => Response::err(format!("unknown command {other:?}")),
            },
            Err(e) => Response::err(format!("bad request: {e}")),
        };
        serde_json::to_string(&response).expect("response serializes")
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
        let mut events = Vec::new();
        for (i, ev) in req.events.as_deref().unwrap_or(&[]).iter().enumerate() {
            match ev.decode() {
                Ok(ev) => events.push(ev),
                Err(e) => return Response::err(format!("event #{i}: {e}")),
            }
        }
        let ingest = trace::span("engine.incremental_ingest");
        let mut applied: u64 = 0;
        let mut error =
            self.study.ingest(name, dialect, taxon, []).err().map(|e| e.to_string());
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
        drop(ingest);
        if applied > 0 {
            let unsaved = self.unsaved.entry(name.to_string()).or_insert(0);
            *unsaved += applied;
            if *unsaved >= SNAPSHOT_EVERY {
                self.snapshot(name);
            }
        }
        let pending = self
            .study
            .project(name)
            .and_then(|s| s.pending_reason())
            .map(|reason| vec![format!("{name}: {reason}")]);
        Response {
            ok: error.is_none(),
            error,
            applied: Some(applied),
            pending,
            ..Response::ok()
        }
    }

    fn snapshot(&mut self, name: &str) {
        let Some(state) = self.study.project(name) else { return };
        let put = trace::span("store.put");
        let snap = state.snapshot();
        if self.store.save(&snap).is_ok() {
            self.unsaved.remove(name);
        }
        drop(put);
        if trace::enabled() {
            let _size = trace::span("probe.snapshot_bytes");
            count(
                "store.bytes_written",
                serde_json::to_string(&snap).map_or(0, |s| s.len() as u64),
            );
        }
    }

    fn project(&mut self, req: &Request) -> Response {
        let Some(name) = req.project.as_deref() else {
            return Response::err("project requires a project name");
        };
        let taxonomy = *self.study.taxonomy();
        let _s = trace::span("engine.incremental_project");
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

    fn taxa(&mut self) -> Response {
        let measures = trace::timed("engine.incremental_measures", || self.study.measures());
        let mut counts: BTreeMap<Taxon, u64> = BTreeMap::new();
        for m in &measures {
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

    fn summary(&mut self) -> Response {
        let results = trace::span("engine.incremental_results");
        let pending: Vec<String> = self.study.pending().into_iter().map(String::from).collect();
        let measures = self.study.measures();
        let study = study_results(measures, &mut self.memo);
        drop(results);
        let report = trace::timed("report.render", || {
            format!("{}\n{}", render_all_figures(&study), research_question_answers(&study))
        });
        Response {
            projects: Some(self.study.len() as u64),
            pending: Some(pending),
            report: Some(report),
            ..Response::ok()
        }
    }
}

/// Warm the study with the warm-up lines, replay the timed lines in the
/// order the daemon received them, and return the final summary report,
/// each timed request's in-process time and the wall time of all timed
/// requests, in ms.
pub fn serve(
    warm: &Path,
    requests: &Path,
    store: &Path,
    traced: bool,
) -> Res<(String, Vec<f64>, f64)> {
    let mut replay = ServeReplay {
        study: IncrementalStudy::new(TaxonomyConfig::default()),
        store: SnapshotStore::open(store).map_err(|e| e.to_string())?,
        unsaved: BTreeMap::new(),
        memo: FisherMemo::default(),
    };
    for line in read(warm)?.lines() {
        let reply = replay.handle(line);
        if !reply.starts_with(r#"{"ok":true"#) {
            return Err(format!("warm-up request failed: {reply}"));
        }
    }
    let lines = read(requests)?;
    trace::set_enabled(traced);
    let mut inproc = Vec::new();
    let start = Instant::now();
    let root = trace::span("replay.serve");
    for line in lines.lines() {
        let t = Instant::now();
        std::hint::black_box(replay.handle(line));
        inproc.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(root);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    trace::set_enabled(false);
    let report = replay.summary().report.unwrap_or_default();
    Ok((report, inproc, wall_ms))
}
