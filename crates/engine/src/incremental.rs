//! Incremental study updates over append-only histories.
//!
//! The batch engine answers "what does the study say about this corpus" by
//! re-running parse → diff → heartbeat → measure over every project. This
//! module keeps the answer *warm* instead: a [`ProjectState`] ingests typed
//! [`ProjectEvent`]s (one commit, one DDL version) and maintains exactly the
//! state the measures need — the sorted version/delta sequence, the two
//! monthly activity maps, and the [`MeasureFolds`] frontier — so appending
//! one month of history costs O(1) amortized fold work instead of a
//! pipeline re-run.
//!
//! **Same semantics as batch, by construction.** The folds are the same
//! fold states `ProjectData::measures` uses; the monthly maps reproduce
//! `Heartbeat::from_events` bucketing (month span = first event month
//! through last, quiet months zero); version insertion reproduces the
//! stable date sort of `SchemaHistory::from_schemas`. The `coevo-oracle`
//! crate proves the equality corpus-wide, bit for bit.
//!
//! **Out-of-order events.** Histories are *mostly* append-only, but a
//! backfilled commit or a late-arriving DDL version lands in a month that
//! is already folded. Ingestion then:
//!
//! 1. re-diffs at most two deltas (the inserted version against its
//!    predecessor, and its successor against the inserted version) — never
//!    the whole history;
//! 2. adjusts the affected months in the activity maps;
//! 3. marks the earliest dirtied month and lets the next measure query
//!    replay the folds from the nearest [`MeasureFolds`] snapshot — bounded
//!    replay, not a recompute.
//!
//! [`IncrementalStudy`] aggregates per-project states (in name order, for
//! deterministic corpus-level results) and re-derives the full
//! [`StudyResults`] — Figures 4–8 plus the Section-7 statistics — from the
//! warm per-project measures on demand.

use coevo_core::{MeasureFolds, ProjectData, ProjectMeasures, StatsCache, StudyResults};
use coevo_corpus::ProjectArtifacts;
use coevo_ddl::{Dialect, ParseCache, ParseError, Schema};
use coevo_diff::{diff_schemas_with, MatchPolicy, SchemaDelta, SchemaVersion, VersionDelta};
use coevo_heartbeat::{DateTime, Heartbeat, HeartbeatError, YearMonth, MAX_HEARTBEAT_MONTHS};
use coevo_taxa::{classify, HeartbeatFeatures, Taxon, TaxonomyConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One unit of project history, as it happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProjectEvent {
    /// A non-merge commit touching the project: its timestamp and the
    /// number of files it updated (the unit of project activity).
    Commit {
        /// The commit timestamp.
        date: DateTime,
        /// Files updated by the commit.
        files_updated: u64,
    },
    /// A new version of the schema DDL file.
    DdlVersion {
        /// The commit timestamp of the version.
        date: DateTime,
        /// The full DDL text of the version.
        ddl: String,
    },
}

impl ProjectEvent {
    /// The event timestamp.
    pub fn date(&self) -> DateTime {
        match self {
            Self::Commit { date, .. } | Self::DdlVersion { date, .. } => *date,
        }
    }

    /// The calendar month the event lands in.
    pub fn month(&self) -> YearMonth {
        YearMonth::of(self.date().date)
    }
}

/// Why an event was rejected. Rejected events are *not* applied: the state
/// is exactly what it was before the offending event.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// A DDL version failed to parse (position information preserved).
    Ddl {
        /// The project the event addressed.
        project: String,
        /// The parser error.
        error: ParseError,
    },
    /// A git log failed to parse while converting artifacts to events.
    GitLog {
        /// The project the artifacts describe.
        project: String,
        /// The log parser error.
        error: coevo_vcs::LogParseError,
    },
    /// The event would stretch the project's heartbeat span beyond
    /// [`MAX_HEARTBEAT_MONTHS`] — an out-of-range date.
    Span {
        /// The project the event addressed.
        project: String,
        /// The typed heartbeat error.
        error: HeartbeatError,
    },
    /// An ingest named a dialect different from the one the project was
    /// created with.
    DialectMismatch {
        /// The project the event addressed.
        project: String,
        /// The project's dialect.
        have: Dialect,
        /// The dialect the ingest named.
        got: Dialect,
    },
}

impl IngestError {
    /// The project the rejected event addressed.
    pub fn project(&self) -> &str {
        match self {
            Self::Ddl { project, .. }
            | Self::GitLog { project, .. }
            | Self::Span { project, .. }
            | Self::DialectMismatch { project, .. } => project,
        }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Ddl { project, error } => write!(f, "{project}: ddl version: {error}"),
            Self::GitLog { project, error } => write!(f, "{project}: git log: {error}"),
            Self::Span { project, error } => write!(f, "{project}: {error}"),
            Self::DialectMismatch { project, have, got } => write!(
                f,
                "{project}: dialect mismatch: project is {}, ingest named {}",
                have.name(),
                got.name()
            ),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Ddl { error, .. } => Some(error),
            Self::GitLog { error, .. } => Some(error),
            Self::Span { error, .. } => Some(error),
            Self::DialectMismatch { .. } => None,
        }
    }
}

/// Sentinel for "no fold month is dirty".
const CLEAN: usize = usize::MAX;

/// The warm per-project state: everything needed to answer measure queries
/// after each event without re-running the pipeline.
pub struct ProjectState {
    name: String,
    dialect: Dialect,
    taxon: Option<Taxon>,
    /// Column-matching policy every delta is diffed under.
    policy: MatchPolicy,
    cache: ParseCache,
    /// Schema versions in the order `SchemaHistory::from_schemas` would
    /// sort them (stable by date; equal dates in arrival order).
    versions: Vec<SchemaVersion>,
    /// Per-version deltas, parallel to `versions`.
    deltas: Vec<VersionDelta>,
    /// Project activity per event month (months with events but zero
    /// activity are present with value 0 — they anchor the heartbeat span).
    project_months: BTreeMap<YearMonth, u64>,
    /// Schema Total Activity per version month.
    schema_months: BTreeMap<YearMonth, u64>,
    commits: u64,
    folds: MeasureFolds,
    /// The axis start the folds were last built on; a change invalidates
    /// every folded index.
    folded_start: Option<YearMonth>,
    /// Lowest axis index the folds no longer reflect ([`CLEAN`] if none).
    dirty_from: usize,
    rediffs: u64,
}

impl fmt::Debug for ProjectState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProjectState")
            .field("name", &self.name)
            .field("commits", &self.commits)
            .field("versions", &self.versions.len())
            .field("months", &self.months())
            .finish()
    }
}

impl ProjectState {
    /// A fresh, empty project under the paper's by-name accounting.
    pub fn new(name: &str, dialect: Dialect) -> Self {
        Self::new_with_policy(name, dialect, MatchPolicy::ByName)
    }

    /// A fresh, empty project whose deltas are diffed under `policy`.
    pub fn new_with_policy(name: &str, dialect: Dialect, policy: MatchPolicy) -> Self {
        Self {
            name: name.to_string(),
            dialect,
            taxon: None,
            policy,
            cache: ParseCache::new(),
            versions: Vec::new(),
            deltas: Vec::new(),
            project_months: BTreeMap::new(),
            schema_months: BTreeMap::new(),
            commits: 0,
            folds: MeasureFolds::new(),
            folded_start: None,
            dirty_from: CLEAN,
            rediffs: 0,
        }
    }

    /// The project name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The DDL dialect every version is parsed with.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// Pre-assign the taxon (overrides classification).
    pub fn set_taxon(&mut self, taxon: Taxon) {
        self.taxon = Some(taxon);
    }

    /// Commit events ingested so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Schema versions ingested so far, in history order.
    pub fn versions(&self) -> &[SchemaVersion] {
        &self.versions
    }

    /// The per-version deltas, parallel to [`ProjectState::versions`].
    pub fn deltas(&self) -> &[VersionDelta] {
        &self.deltas
    }

    /// The joint month-axis length (0 before any event).
    pub fn months(&self) -> usize {
        match self.axis_bounds() {
            Some((start, end)) => (end.months_since(&start) + 1) as usize,
            None => 0,
        }
    }

    /// How many bounded fold replays out-of-order events have caused.
    pub fn replays(&self) -> u64 {
        self.folds.replays()
    }

    /// How many successor deltas late versions forced to be re-diffed.
    pub fn rediffs(&self) -> u64 {
        self.rediffs
    }

    /// Can measures be computed? Requires at least one commit and one DDL
    /// version — the same precondition under which the batch pipeline
    /// succeeds instead of failing with an `Empty` stage error.
    pub fn is_measurable(&self) -> bool {
        self.commits > 0 && !self.versions.is_empty()
    }

    /// Why the project is not measurable yet, if it isn't.
    pub fn pending_reason(&self) -> Option<&'static str> {
        if self.commits == 0 {
            Some("no commits ingested")
        } else if self.versions.is_empty() {
            Some("no DDL versions ingested")
        } else {
            None
        }
    }

    /// Apply one event. On `Err` the state is unchanged.
    pub fn ingest(&mut self, event: ProjectEvent) -> Result<(), IngestError> {
        match event {
            ProjectEvent::Commit { date, files_updated } => {
                let m = YearMonth::of(date.date);
                self.check_span(m)?;
                *self.project_months.entry(m).or_insert(0) += files_updated;
                self.commits += 1;
                self.mark_dirty(m);
                Ok(())
            }
            ProjectEvent::DdlVersion { date, ddl } => self.ingest_version(date, &ddl),
        }
    }

    fn ingest_version(&mut self, date: DateTime, ddl: &str) -> Result<(), IngestError> {
        // The span first: a parse commits the text to the project's parse
        // memo, which a rejected event must not change.
        let m = YearMonth::of(date.date);
        self.check_span(m)?;
        let schema = self
            .cache
            .parse(ddl, self.dialect)
            .map_err(|error| IngestError::Ddl { project: self.name.clone(), error })?;

        // Insert after every version dated at or before this one — exactly
        // where a stable sort by date would put an arrival-ordered sequence.
        let i = self.versions.partition_point(|v| v.date.unix_seconds() <= date.unix_seconds());
        let version = SchemaVersion { date, schema };
        let delta = self.delta_against_predecessor(i, &version);
        let breakdown = delta.breakdown();
        self.versions.insert(i, version);
        self.deltas.insert(i, VersionDelta { date, delta, breakdown });
        *self.schema_months.entry(m).or_insert(0) += breakdown.total();
        self.mark_dirty(m);

        // A non-final insertion invalidates exactly one other delta: the
        // successor was diffed against the old predecessor.
        if i + 1 < self.versions.len() {
            self.rediff_successor(i);
        }
        Ok(())
    }

    /// The delta of a version about to sit at index `i`, against the
    /// version before it (or the empty schema). Shared-`Arc` versions are
    /// provably inactive without a compare, as in the batch history.
    fn delta_against_predecessor(&self, i: usize, version: &SchemaVersion) -> SchemaDelta {
        match i.checked_sub(1).map(|p| &self.versions[p].schema) {
            Some(prev) if Arc::ptr_eq(prev, &version.schema) => {
                SchemaDelta { tables: Vec::new() }
            }
            Some(prev) => {
                diff_schemas_with(prev.as_ref(), version.schema.as_ref(), self.policy)
            }
            None => {
                diff_schemas_with(Schema::empty_ref(), version.schema.as_ref(), self.policy)
            }
        }
    }

    /// Re-diff the successor of a version just inserted at `i`, adjusting
    /// its month's schema activity by the difference.
    fn rediff_successor(&mut self, i: usize) {
        let succ = &self.versions[i + 1];
        let delta = if Arc::ptr_eq(&self.versions[i].schema, &succ.schema) {
            SchemaDelta { tables: Vec::new() }
        } else {
            diff_schemas_with(
                self.versions[i].schema.as_ref(),
                succ.schema.as_ref(),
                self.policy,
            )
        };
        let breakdown = delta.breakdown();
        let old_total = self.deltas[i + 1].breakdown.total();
        let date = self.deltas[i + 1].date;
        if breakdown.total() != old_total {
            let m = YearMonth::of(date.date);
            let slot = self.schema_months.get_mut(&m).expect("successor month present");
            *slot = *slot - old_total + breakdown.total();
            self.mark_dirty(m);
        }
        self.deltas[i + 1] = VersionDelta { date, delta, breakdown };
        self.rediffs += 1;
    }

    /// Reject events that would stretch the heartbeat span beyond
    /// [`MAX_HEARTBEAT_MONTHS`] — the typed form of the guard
    /// `Heartbeat::try_from_events` applies to batch inputs.
    fn check_span(&self, m: YearMonth) -> Result<(), IngestError> {
        let (mut first, mut last) = (m, m);
        if let Some((start, end)) = self.axis_bounds() {
            first = first.min(start);
            last = last.max(end);
        }
        let months = (last.months_since(&first) + 1) as usize;
        if months > MAX_HEARTBEAT_MONTHS {
            return Err(IngestError::Span {
                project: self.name.clone(),
                error: HeartbeatError::SpanExceeded { months, first, last },
            });
        }
        Ok(())
    }

    /// The joint month axis: earliest event month through latest, across
    /// both series — the batch `align_pair` axis.
    fn axis_bounds(&self) -> Option<(YearMonth, YearMonth)> {
        let firsts = [self.project_months.keys().next(), self.schema_months.keys().next()];
        let lasts =
            [self.project_months.keys().next_back(), self.schema_months.keys().next_back()];
        let start = firsts.into_iter().flatten().min()?;
        let end = lasts.into_iter().flatten().max()?;
        Some((*start, *end))
    }

    /// Record that month `m` no longer matches the folds. A moved axis
    /// start shifts every folded index, so it dirties everything.
    fn mark_dirty(&mut self, m: YearMonth) {
        let Some((start, _)) = self.axis_bounds() else { return };
        match self.folded_start {
            Some(fs) if fs == start => {
                let idx = m.months_since(&start) as usize;
                self.dirty_from = self.dirty_from.min(idx);
            }
            _ => {
                self.folded_start = Some(start);
                self.dirty_from = 0;
            }
        }
    }

    /// Bring the folds up to the current frontier: bounded replay from the
    /// nearest snapshot for dirtied months, plain appends for new ones.
    fn refresh_folds(&mut self) {
        let Some((start, end)) = self.axis_bounds() else { return };
        let months = (end.months_since(&start) + 1) as usize;
        let resume = if self.dirty_from == CLEAN {
            self.folds.months()
        } else if self.dirty_from < self.folds.months() {
            self.folds.rewind_to(self.dirty_from)
        } else {
            self.folds.months()
        };
        for i in resume..months {
            let month = start.plus(i as i64);
            self.folds.append_month(
                self.project_months.get(&month).copied().unwrap_or(0),
                self.schema_months.get(&month).copied().unwrap_or(0),
            );
        }
        self.dirty_from = CLEAN;
    }

    /// The activity of the creation delta (the initial schema's size).
    fn birth_activity(&self) -> u64 {
        self.deltas.first().map(|d| d.breakdown.total()).unwrap_or(0)
    }

    fn heartbeat_of(map: &BTreeMap<YearMonth, u64>) -> Option<Heartbeat> {
        let first = *map.keys().next()?;
        let last = *map.keys().next_back()?;
        let n = (last.months_since(&first) + 1) as usize;
        let activity =
            (0..n).map(|i| map.get(&first.plus(i as i64)).copied().unwrap_or(0)).collect();
        Some(Heartbeat::new(first, activity))
    }

    /// The project heartbeat accumulated so far.
    pub fn project_heartbeat(&self) -> Option<Heartbeat> {
        Self::heartbeat_of(&self.project_months)
    }

    /// The schema heartbeat accumulated so far.
    pub fn schema_heartbeat(&self) -> Option<Heartbeat> {
        Self::heartbeat_of(&self.schema_months)
    }

    /// The equivalent batch input: the same [`ProjectData`] the pipeline
    /// would produce from this project's full history.
    pub fn data(&self) -> Option<ProjectData> {
        if !self.is_measurable() {
            return None;
        }
        let project = self.project_heartbeat()?;
        let schema = self.schema_heartbeat()?;
        let mut data = ProjectData::new(&self.name, project, schema, self.birth_activity());
        if let Some(taxon) = self.taxon {
            data = data.with_taxon(taxon);
        }
        Some(data)
    }

    /// Every per-project measure at the current frontier, or `None` while
    /// the project is still [pending](ProjectState::pending_reason).
    pub fn measures(&mut self, cfg: &TaxonomyConfig) -> Option<ProjectMeasures> {
        if !self.is_measurable() {
            return None;
        }
        self.refresh_folds();
        let out = self.folds.outputs();
        let taxon = self.taxon.unwrap_or_else(|| {
            let schema = self.schema_heartbeat().expect("measurable project has versions");
            classify(&HeartbeatFeatures::post_birth(&schema, self.birth_activity()), cfg)
        });
        Some(ProjectMeasures {
            name: self.name.clone(),
            taxon,
            months: out.months,
            sync_05: out.sync_05,
            sync_10: out.sync_10,
            advance: out.advance,
            attainment: out.attainment,
            schema_total_activity: out.schema_total,
            project_total_activity: out.project_total,
        })
    }

    /// A serializable snapshot of the full state (events folded so far),
    /// for crash-safe persistence. Restoring replays nothing through the
    /// parser or differ; only the fold frontier is rebuilt.
    pub fn snapshot(&self) -> ProjectSnapshot {
        ProjectSnapshot {
            name: self.name.clone(),
            dialect: self.dialect,
            taxon: self.taxon,
            commits: self.commits,
            project_months: self.project_months.iter().map(|(&m, &a)| (m, a)).collect(),
            versions: self.versions.clone(),
            deltas: self.deltas.clone(),
        }
    }

    /// Rebuild a state from a snapshot, diffing future versions by name.
    /// Folds are rebuilt lazily on the first measure query.
    pub fn from_snapshot(snap: ProjectSnapshot) -> Self {
        Self::from_snapshot_with(snap, MatchPolicy::ByName)
    }

    /// Rebuild a state from a snapshot, diffing future versions under
    /// `policy`. Snapshots persist folded deltas, not the policy that
    /// produced them — the restoring study supplies its own.
    pub fn from_snapshot_with(snap: ProjectSnapshot, policy: MatchPolicy) -> Self {
        let mut schema_months = BTreeMap::new();
        for d in &snap.deltas {
            *schema_months.entry(YearMonth::of(d.date.date)).or_insert(0) +=
                d.breakdown.total();
        }
        Self {
            name: snap.name,
            dialect: snap.dialect,
            taxon: snap.taxon,
            policy,
            cache: ParseCache::new(),
            versions: snap.versions,
            deltas: snap.deltas,
            project_months: snap.project_months.into_iter().collect(),
            schema_months,
            commits: snap.commits,
            folds: MeasureFolds::new(),
            folded_start: None,
            dirty_from: CLEAN,
            rediffs: 0,
        }
    }
}

/// The persistent form of a [`ProjectState`]: name, dialect, taxon, and the
/// folded history (monthly commit activity plus the parsed version/delta
/// sequence). Everything else is derived.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProjectSnapshot {
    /// The project name.
    pub name: String,
    /// The DDL dialect.
    pub dialect: Dialect,
    /// Pre-assigned taxon, if any.
    pub taxon: Option<Taxon>,
    /// Commit events ingested.
    pub commits: u64,
    /// Project activity per event month.
    pub project_months: Vec<(YearMonth, u64)>,
    /// Schema versions, history order.
    pub versions: Vec<SchemaVersion>,
    /// Per-version deltas, parallel to `versions`.
    pub deltas: Vec<VersionDelta>,
}

/// Convert batch artifacts into the event stream the incremental path
/// ingests: one [`ProjectEvent::Commit`] per non-merge commit of the git
/// log, then one [`ProjectEvent::DdlVersion`] per dated version text.
pub fn artifacts_to_events(p: &ProjectArtifacts) -> Result<Vec<ProjectEvent>, IngestError> {
    let activity = coevo_vcs::commit_activity(&p.git_log)
        .map_err(|error| IngestError::GitLog { project: p.name.clone(), error })?;
    let mut events: Vec<ProjectEvent> = activity
        .iter()
        .filter(|c| !c.is_merge)
        .map(|c| ProjectEvent::Commit { date: c.date, files_updated: c.files_updated })
        .collect();
    events.extend(
        p.ddl_versions
            .iter()
            .map(|(date, ddl)| ProjectEvent::DdlVersion { date: *date, ddl: ddl.clone() }),
    );
    Ok(events)
}

/// A whole study kept warm: per-project [`ProjectState`]s in name order,
/// with corpus-level [`StudyResults`] recomputed from the warm measures on
/// demand.
#[derive(Debug, Default)]
pub struct IncrementalStudy {
    taxonomy: TaxonomyConfig,
    policy: MatchPolicy,
    projects: BTreeMap<String, ProjectState>,
    /// Memo for Section 7's exact tests: one-month appends rarely change
    /// the contingency tables, so warm summaries skip the Fisher
    /// enumeration that dominates a cold `results()`.
    stats: StatsCache,
}

impl IncrementalStudy {
    /// A fresh study under a taxonomy configuration, diffing by name.
    pub fn new(taxonomy: TaxonomyConfig) -> Self {
        Self::new_with_policy(taxonomy, MatchPolicy::ByName)
    }

    /// A fresh study whose projects diff under `policy`.
    pub fn new_with_policy(taxonomy: TaxonomyConfig, policy: MatchPolicy) -> Self {
        Self { taxonomy, policy, projects: BTreeMap::new(), stats: StatsCache::default() }
    }

    /// The taxonomy configuration measures are computed under.
    pub fn taxonomy(&self) -> &TaxonomyConfig {
        &self.taxonomy
    }

    /// Number of projects (measurable or pending).
    pub fn len(&self) -> usize {
        self.projects.len()
    }

    /// Whether the study has no projects at all.
    pub fn is_empty(&self) -> bool {
        self.projects.is_empty()
    }

    /// The project names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.projects.keys().map(String::as_str)
    }

    /// One project's state.
    pub fn project(&self, name: &str) -> Option<&ProjectState> {
        self.projects.get(name)
    }

    /// One project's state, mutably.
    pub fn project_mut(&mut self, name: &str) -> Option<&mut ProjectState> {
        self.projects.get_mut(name)
    }

    /// Ingest a batch of events for one project, creating it on first
    /// contact. Returns the number of events applied. On `Err`, events
    /// before the offending one are applied; the offending one is not.
    pub fn ingest<I>(
        &mut self,
        name: &str,
        dialect: Dialect,
        taxon: Option<Taxon>,
        events: I,
    ) -> Result<usize, IngestError>
    where
        I: IntoIterator<Item = ProjectEvent>,
    {
        let policy = self.policy;
        let state = self
            .projects
            .entry(name.to_string())
            .or_insert_with(|| ProjectState::new_with_policy(name, dialect, policy));
        if state.dialect() != dialect {
            return Err(IngestError::DialectMismatch {
                project: name.to_string(),
                have: state.dialect(),
                got: dialect,
            });
        }
        if let Some(t) = taxon {
            state.set_taxon(t);
        }
        let mut applied = 0;
        for event in events {
            state.ingest(event)?;
            applied += 1;
        }
        Ok(applied)
    }

    /// Ingest a whole project's batch artifacts as an event stream.
    pub fn ingest_artifacts(&mut self, p: &ProjectArtifacts) -> Result<usize, IngestError> {
        let events = artifacts_to_events(p)?;
        self.ingest(&p.name, p.dialect, p.taxon, events)
    }

    /// Names of projects that cannot be measured yet.
    pub fn pending(&self) -> Vec<&str> {
        self.projects.values().filter(|s| !s.is_measurable()).map(|s| s.name()).collect()
    }

    /// Per-project measures of every measurable project, in name order —
    /// the warm equivalent of the batch measure column.
    pub fn measures(&mut self) -> Vec<ProjectMeasures> {
        let cfg = self.taxonomy;
        self.projects.values_mut().filter_map(|s| s.measures(&cfg)).collect()
    }

    /// The full study — Figures 4–8 and the Section-7 statistics — over the
    /// measurable projects, recomputed from the warm measures.
    pub fn results(&mut self) -> StudyResults {
        let measures = self.measures();
        StudyResults::from_measures_cached(measures, &mut self.stats)
    }

    /// Snapshots of every project, in name order.
    pub fn snapshots(&self) -> Vec<ProjectSnapshot> {
        self.projects.values().map(ProjectState::snapshot).collect()
    }

    /// Restore one project from a snapshot, replacing any existing state
    /// under the same name. Future versions diff under this study's policy.
    pub fn restore(&mut self, snap: ProjectSnapshot) {
        let state = ProjectState::from_snapshot_with(snap, self.policy);
        self.projects.insert(state.name().to_string(), state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Source, StudyConfig, StudyRunner};
    use coevo_corpus::{generate_corpus, CorpusSpec};

    fn dt(s: &str) -> DateTime {
        DateTime::parse(s).unwrap()
    }

    fn commit(date: &str, files: u64) -> ProjectEvent {
        ProjectEvent::Commit { date: dt(date), files_updated: files }
    }

    fn version(date: &str, ddl: &str) -> ProjectEvent {
        ProjectEvent::DdlVersion { date: dt(date), ddl: ddl.to_string() }
    }

    fn small_artifacts() -> Vec<ProjectArtifacts> {
        let spec = CorpusSpec::paper().with_per_taxon(1);
        generate_corpus(&spec).iter().map(ProjectArtifacts::from_generated).collect()
    }

    #[test]
    fn streamed_project_matches_batch_pipeline() {
        let runner = StudyRunner::new(StudyConfig::default());
        for p in &small_artifacts() {
            let (batch_data, batch_measures) = runner.run_project(p).expect("batch");
            let mut state = ProjectState::new(&p.name, p.dialect);
            if let Some(t) = p.taxon {
                state.set_taxon(t);
            }
            for ev in artifacts_to_events(p).expect("events") {
                state.ingest(ev).expect("ingest");
            }
            assert_eq!(state.data().as_ref(), Some(&batch_data), "{}", p.name);
            let m = state.measures(&TaxonomyConfig::default()).expect("measures");
            assert_eq!(m, batch_measures, "{}", p.name);
        }
    }

    #[test]
    fn incremental_study_matches_batch_study_in_name_order() {
        let artifacts = small_artifacts();
        let report = StudyRunner::new(StudyConfig::default())
            .run(Source::InMemory(artifacts.clone()))
            .expect("batch run");
        let mut by_name = report.results.measures.clone();
        by_name.sort_by(|a, b| a.name.cmp(&b.name));
        let batch = StudyResults::from_measures(by_name);

        let mut study = IncrementalStudy::default();
        for p in &artifacts {
            study.ingest_artifacts(p).expect("ingest");
        }
        assert!(study.pending().is_empty());
        assert_eq!(study.results(), batch);
    }

    #[test]
    fn out_of_order_events_converge_to_the_same_measures() {
        let p = &small_artifacts()[0];
        let mut in_order = ProjectState::new(&p.name, p.dialect);
        let mut shuffled = ProjectState::new(&p.name, p.dialect);
        let events = artifacts_to_events(p).expect("events");
        for ev in events.clone() {
            in_order.ingest(ev).expect("ingest");
        }
        let expected = in_order.measures(&TaxonomyConfig::default()).expect("measures");

        // Deliver commits last and reversed — every DDL version lands
        // before the project series even starts, then commits backfill
        // earlier months one by one.
        let (commits, ddls): (Vec<_>, Vec<_>) =
            events.into_iter().partition(|e| matches!(e, ProjectEvent::Commit { .. }));
        for ev in ddls {
            shuffled.ingest(ev).expect("ingest");
        }
        // Interleave a measure query so folds exist before the backfill.
        let _ = shuffled.measures(&TaxonomyConfig::default());
        for ev in commits.into_iter().rev() {
            shuffled.ingest(ev).expect("ingest");
        }
        let got = shuffled.measures(&TaxonomyConfig::default()).expect("measures");
        assert_eq!(got, expected);
    }

    #[test]
    fn late_version_rediffs_only_its_successor() {
        let mut state = ProjectState::new("x/y", Dialect::Generic);
        state.ingest(commit("2020-01-05 00:00:00 +0000", 3)).unwrap();
        state.ingest(commit("2020-04-05 00:00:00 +0000", 2)).unwrap();
        state.ingest(version("2020-01-10 00:00:00 +0000", "CREATE TABLE t (a INT);")).unwrap();
        state
            .ingest(version(
                "2020-04-10 00:00:00 +0000",
                "CREATE TABLE t (a INT, b INT, c INT);",
            ))
            .unwrap();
        let eager = state.measures(&TaxonomyConfig::default()).unwrap();
        assert_eq!(eager.schema_total_activity, 3); // 1 born + 2 injected

        // A version between them arrives late: the successor's delta must
        // shrink from two injections to one.
        state
            .ingest(version("2020-02-10 00:00:00 +0000", "CREATE TABLE t (a INT, b INT);"))
            .unwrap();
        assert_eq!(state.rediffs(), 1);
        let m = state.measures(&TaxonomyConfig::default()).unwrap();
        assert_eq!(m.schema_total_activity, 3); // 1 born + 1 + 1 injected
        assert!(state.replays() >= 1);

        // The whole history equals a batch rebuild of the same versions.
        let batch = coevo_diff::SchemaHistory::from_schemas(
            state.versions().to_vec(),
            coevo_diff::MatchPolicy::ByName,
        )
        .unwrap();
        assert_eq!(state.deltas(), batch.deltas());
        assert_eq!(state.schema_heartbeat().unwrap(), batch.heartbeat());
    }

    #[test]
    fn pending_projects_are_excluded_until_complete() {
        let mut study = IncrementalStudy::default();
        study
            .ingest(
                "solo/commits",
                Dialect::Generic,
                None,
                [commit("2020-01-05 00:00:00 +0000", 1)],
            )
            .unwrap();
        assert_eq!(study.pending(), vec!["solo/commits"]);
        assert!(study.results().measures.is_empty());

        study
            .ingest(
                "solo/commits",
                Dialect::Generic,
                None,
                [version("2020-01-10 00:00:00 +0000", "CREATE TABLE t (a INT);")],
            )
            .unwrap();
        assert!(study.pending().is_empty());
        assert_eq!(study.results().measures.len(), 1);
    }

    #[test]
    fn snapshot_roundtrip_preserves_measures_and_accepts_new_events() {
        let p = &small_artifacts()[2];
        let mut state = ProjectState::new(&p.name, p.dialect);
        if let Some(t) = p.taxon {
            state.set_taxon(t);
        }
        for ev in artifacts_to_events(p).expect("events") {
            state.ingest(ev).expect("ingest");
        }
        let expected = state.measures(&TaxonomyConfig::default()).unwrap();

        let json = serde_json::to_string(&state.snapshot()).unwrap();
        let snap: ProjectSnapshot = serde_json::from_str(&json).unwrap();
        let mut restored = ProjectState::from_snapshot(snap);
        assert_eq!(restored.measures(&TaxonomyConfig::default()).unwrap(), expected);

        // The restored state keeps evolving: ingest one more quiet month on
        // both sides and compare against the original doing the same.
        let last = state.versions().last().unwrap();
        let next = last.date.date;
        let late = format!("{:04}-{:02}-01 00:00:00 +0000", next.year + 1, next.month);
        for s in [&mut state, &mut restored] {
            s.ingest(commit(&late, 4)).unwrap();
        }
        assert_eq!(
            restored.measures(&TaxonomyConfig::default()),
            state.measures(&TaxonomyConfig::default())
        );
    }

    #[test]
    fn span_overflow_is_rejected_and_state_unchanged() {
        let mut state = ProjectState::new("x/y", Dialect::Generic);
        state.ingest(commit("2020-01-05 00:00:00 +0000", 1)).unwrap();
        let err = state.ingest(commit("99999-01-05 00:00:00 +0000", 1)).unwrap_err();
        assert!(matches!(err, IngestError::Span { .. }));
        assert_eq!(err.project(), "x/y");
        assert_eq!(state.commits(), 1);
        assert_eq!(state.months(), 1);
    }

    #[test]
    fn span_rejected_version_leaves_the_parse_memo_alone() {
        let mut state = ProjectState::new("x/y", Dialect::Generic);
        state.ingest(commit("2020-01-05 00:00:00 +0000", 1)).unwrap();
        let ab = "CREATE TABLE a (x INT);\nCREATE TABLE b (y INT);\n";
        state.ingest(version("2020-01-10 00:00:00 +0000", ab)).unwrap();
        let counts = (state.cache.hits(), state.cache.misses());
        assert_eq!(counts, (0, 2));

        let cd = "CREATE TABLE c (z INT);\nCREATE TABLE d (w INT);\n";
        let err = state.ingest(version("99999-01-05 00:00:00 +0000", cd)).unwrap_err();
        assert!(matches!(err, IngestError::Span { .. }));
        assert_eq!((state.cache.hits(), state.cache.misses()), counts);
        assert_eq!(state.versions().len(), 1);

        // The next version recalls `a` and `b` from the last accepted
        // version; `c` of the rejected one was never kept.
        let abc = format!("{ab}CREATE TABLE c (z INT);\n");
        state.ingest(version("2020-02-10 00:00:00 +0000", &abc)).unwrap();
        assert_eq!((state.cache.hits(), state.cache.misses()), (2, 3));
    }

    #[test]
    fn bad_ddl_is_rejected_with_parse_position() {
        let mut state = ProjectState::new("x/y", Dialect::Generic);
        let err = state
            .ingest(version("2020-01-10 00:00:00 +0000", "CREATE TABLE t (a INT"))
            .unwrap_err();
        let IngestError::Ddl { project, error } = err else { panic!("expected Ddl") };
        assert_eq!(project, "x/y");
        assert!(error.line >= 1);
        assert!(state.versions().is_empty());
    }

    #[test]
    fn dialect_mismatch_is_rejected() {
        let mut study = IncrementalStudy::default();
        study
            .ingest("x/y", Dialect::Generic, None, [commit("2020-01-05 00:00:00 +0000", 1)])
            .unwrap();
        let err = study
            .ingest("x/y", Dialect::MySql, None, [commit("2020-02-05 00:00:00 +0000", 1)])
            .unwrap_err();
        assert!(matches!(err, IngestError::DialectMismatch { .. }));
    }

    #[test]
    fn one_month_append_is_cheap_after_warmup() {
        let p = &small_artifacts()[0];
        let mut state = ProjectState::new(&p.name, p.dialect);
        for ev in artifacts_to_events(p).expect("events") {
            state.ingest(ev).expect("ingest");
        }
        let _ = state.measures(&TaxonomyConfig::default());
        let replays_before = state.replays();
        // An in-order append (a commit after the last folded month) must
        // not rewind anything.
        let last = state.project_heartbeat().unwrap().end();
        let after = last.plus(1);
        let date = format!("{:04}-{:02}-15 00:00:00 +0000", after.year, after.month);
        state.ingest(commit(&date, 2)).unwrap();
        let _ = state.measures(&TaxonomyConfig::default());
        assert_eq!(state.replays(), replays_before);
    }
}
