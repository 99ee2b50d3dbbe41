//! The wire protocol: one JSON object per line, in both directions.
//!
//! Requests name a command in `cmd` plus whatever optional fields that
//! command reads; unknown commands and malformed lines are answered with
//! `{"ok":false,"error":...}` without closing the connection. Responses
//! carry `ok` plus only the fields the command produces (absent fields are
//! omitted from the line entirely).
//!
//! | `cmd`      | reads                                   | answers                         |
//! |------------|-----------------------------------------|---------------------------------|
//! | `ping`     | —                                       | `ok`                            |
//! | `ingest`   | `project`, `dialect?`, `taxon?`, `events` | `applied`, `pending`          |
//! | `project`  | `project`                               | `measures` or `pending`         |
//! | `summary`  | —                                       | `projects`, `pending`, `report` |
//! | `taxa`     | —                                       | `taxa`                          |
//! | `compat`   | `project`, `ddl?`                       | `compat` (level, rules, steps)  |
//! | `snapshot` | —                                       | `written`                       |
//! | `shutdown` | —                                       | `ok` (then the daemon exits)    |

use coevo_core::ProjectMeasures;
use coevo_engine::ProjectEvent;
use coevo_heartbeat::DateTime;
use serde::{Deserialize, Serialize};

/// One request line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// The command name.
    pub cmd: String,
    /// The project addressed (`ingest`, `project`).
    #[serde(default)]
    pub project: Option<String>,
    /// Dialect name for `ingest` (defaults to `generic`).
    #[serde(default)]
    pub dialect: Option<String>,
    /// Pre-assigned taxon name for `ingest` (defaults to classification).
    #[serde(default)]
    pub taxon: Option<String>,
    /// The events to ingest.
    #[serde(default)]
    pub events: Option<Vec<WireEvent>>,
    /// Candidate DDL text for `compat` ("is this schema safe to ship?").
    #[serde(default)]
    pub ddl: Option<String>,
}

impl Request {
    /// A bare command with no fields.
    pub fn bare(cmd: &str) -> Self {
        Self {
            cmd: cmd.to_string(),
            project: None,
            dialect: None,
            taxon: None,
            events: None,
            ddl: None,
        }
    }

    /// Parse one raw request line; a malformed line yields the error text
    /// it is answered with.
    pub fn parse(line: &str) -> Result<Self, String> {
        serde_json::from_str(line).map_err(|e| format!("bad request: {e}"))
    }
}

/// One event on the wire. `kind` selects the shape: `"commit"` reads
/// `files`, `"ddl"` reads `ddl`; both read `date` (git `--date=iso`
/// format, e.g. `2015-06-12 14:33:02 +0200`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireEvent {
    /// `"commit"` or `"ddl"`.
    pub kind: String,
    /// The event timestamp.
    pub date: String,
    /// Files updated (commits; defaults to 0).
    #[serde(default)]
    pub files: Option<u64>,
    /// The DDL text (versions).
    #[serde(default)]
    pub ddl: Option<String>,
}

impl WireEvent {
    /// A commit event.
    pub fn commit(date: &str, files: u64) -> Self {
        Self { kind: "commit".into(), date: date.into(), files: Some(files), ddl: None }
    }

    /// A DDL version event.
    pub fn ddl(date: &str, ddl: &str) -> Self {
        Self { kind: "ddl".into(), date: date.into(), files: None, ddl: Some(ddl.into()) }
    }

    /// Decode into a typed engine event.
    pub fn decode(&self) -> Result<ProjectEvent, String> {
        let date = DateTime::parse(&self.date)
            .map_err(|e| format!("bad event date {:?}: {e}", self.date))?;
        match self.kind.as_str() {
            "commit" => {
                Ok(ProjectEvent::Commit { date, files_updated: self.files.unwrap_or(0) })
            }
            "ddl" => match &self.ddl {
                Some(text) => Ok(ProjectEvent::DdlVersion { date, ddl: text.clone() }),
                None => Err("ddl event without a ddl field".to_string()),
            },
            other => Err(format!("unknown event kind {other:?} (expected commit|ddl)")),
        }
    }

    /// Encode a typed engine event for the wire.
    pub fn encode(event: &ProjectEvent) -> Self {
        match event {
            ProjectEvent::Commit { date, files_updated } => {
                Self::commit(&date.to_string(), *files_updated)
            }
            ProjectEvent::DdlVersion { date, ddl } => Self::ddl(&date.to_string(), ddl),
        }
    }
}

/// The `compat` answer: either the classification of one candidate step
/// (project head → submitted DDL) or the compatibility profile of the
/// project's warm history when no DDL is submitted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompatAnswer {
    /// The combined compatibility level (`BACKWARD`, `FORWARD`, `FULL`,
    /// `BREAKING`, `NONE`). In profile mode: the fold over every step.
    pub level: String,
    /// Distinct classification rules that fired, first-hit order.
    pub rules: Vec<String>,
    /// Evolution steps profiled (0 in candidate-DDL mode).
    pub steps: u64,
    /// Steps classified BREAKING (candidate mode: 1 or 0).
    pub breaking_steps: u64,
}

/// One taxon's project count in the `taxa` answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaxonCount {
    /// The taxon slug.
    pub taxon: String,
    /// Measurable projects classified under it.
    pub count: u64,
}

/// One response line. Only the fields the command produces are present.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Whether the request succeeded.
    pub ok: bool,
    /// The failure reason when `ok` is false.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// Events applied by `ingest` (also present on a mid-batch failure:
    /// events before the offending one stay applied).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub applied: Option<u64>,
    /// Projects that cannot be measured yet, with the reason.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub pending: Option<Vec<String>>,
    /// The warm measures of one project.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub measures: Option<ProjectMeasures>,
    /// Number of projects the daemon holds.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub projects: Option<u64>,
    /// The rendered study report (figures + research-question answers).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub report: Option<String>,
    /// Taxon histogram over measurable projects.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub taxa: Option<Vec<TaxonCount>>,
    /// Snapshots written by `snapshot`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub written: Option<u64>,
    /// The compatibility answer of `compat`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub compat: Option<CompatAnswer>,
}

impl Response {
    /// A bare success.
    pub fn ok() -> Self {
        Self {
            ok: true,
            error: None,
            applied: None,
            pending: None,
            measures: None,
            projects: None,
            report: None,
            taxa: None,
            written: None,
            compat: None,
        }
    }

    /// A failure with a reason.
    pub fn err(message: impl Into<String>) -> Self {
        Self { ok: false, error: Some(message.into()), ..Self::ok() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_with_missing_fields() {
        let json = r#"{"cmd":"ping"}"#;
        let req: Request = serde_json::from_str(json).unwrap();
        assert_eq!(req, Request::bare("ping"));
    }

    #[test]
    fn response_omits_absent_fields() {
        let line = serde_json::to_string(&Response::ok()).unwrap();
        assert_eq!(line, r#"{"ok":true}"#);
        let line = serde_json::to_string(&Response::err("nope")).unwrap();
        assert!(line.contains("\"error\":\"nope\""));
        assert!(!line.contains("measures"));
    }

    #[test]
    fn wire_event_decode_commit_and_ddl() {
        let ev = WireEvent::commit("2015-06-12 14:33:02 +0200", 3).decode().unwrap();
        assert!(matches!(ev, ProjectEvent::Commit { files_updated: 3, .. }));
        let ev = WireEvent::ddl("2015-06-13", "CREATE TABLE t (a INT);").decode().unwrap();
        assert!(matches!(ev, ProjectEvent::DdlVersion { .. }));
    }

    #[test]
    fn wire_event_decode_rejects_garbage() {
        assert!(WireEvent::commit("not a date", 1).decode().is_err());
        let mut ev = WireEvent::ddl("2015-06-13", "x");
        ev.ddl = None;
        assert!(ev.decode().is_err());
        ev.kind = "merge".into();
        assert!(ev.decode().is_err());
    }

    #[test]
    fn wire_event_encode_round_trips() {
        let events = [
            ProjectEvent::Commit {
                date: DateTime::parse("2015-06-12 14:33:02 +0200").unwrap(),
                files_updated: 7,
            },
            ProjectEvent::DdlVersion {
                date: DateTime::parse("2016-01-01 00:00:00 +0000").unwrap(),
                ddl: "CREATE TABLE t (a INT);".to_string(),
            },
        ];
        for ev in events {
            assert_eq!(WireEvent::encode(&ev).decode().unwrap(), ev);
        }
    }
}
