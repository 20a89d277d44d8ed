//! Session logs: record, save, and replay exploration sessions.
//!
//! The paper points at next-step recommenders driven by "logs of previous
//! operations" (\[23, 42\]) as drop-in alternatives for the
//! Recommendation Builder, and the conclusion names personalized
//! exploration as future work. Both need a durable record of what an
//! analyst did, so sessions log their operations in a human-readable,
//! line-based format:
//!
//! ```text
//! #subdex-session v1
//! user<TAB>*
//! # step 0: total 812µs | groups 14µs | scan 210µs | generate 433µs | select 96µs | recommend 255µs
//! recommendation<TAB>reviewer.age_group = young
//! user<TAB>reviewer.age_group = young AND item.city = NYC
//! ```
//!
//! `#`-prefixed lines are comments: [`SessionLog::serialize_with_stats`]
//! emits one per step with the per-phase timing breakdown from the step's
//! [`StepStats`], and the parser skips them, so both forms replay
//! identically.
//!
//! Queries use the same textual form as
//! [`SubjectiveDb::describe_query`] / [`subdex_store::parse_query`], so a
//! log replays against any database with the same schema — and because the
//! engine is deterministic given its configuration and seed, a replay
//! reproduces the original maps and recommendations exactly.

use crate::engine::{EngineConfig, SdeEngine, StepResult};
use crate::plan::StepStats;
use subdex_store::{parse_query, ParseError, SelectionQuery, SubjectiveDb};

/// How an operation entered the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpSource {
    /// Typed / chosen by the user.
    User,
    /// A system recommendation the user accepted.
    Recommendation,
    /// Applied by the Fully-Automated mode.
    Auto,
}

impl OpSource {
    fn tag(self) -> &'static str {
        match self {
            OpSource::User => "user",
            OpSource::Recommendation => "recommendation",
            OpSource::Auto => "auto",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "user" => Some(OpSource::User),
            "recommendation" => Some(OpSource::Recommendation),
            "auto" => Some(OpSource::Auto),
            _ => None,
        }
    }
}

/// One logged operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Provenance of the operation.
    pub source: OpSource,
    /// The executed query.
    pub query: SelectionQuery,
}

/// An in-memory session log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionLog {
    entries: Vec<LogEntry>,
}

/// Errors when loading a serialized log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// Missing or wrong header line.
    BadHeader,
    /// A line had no tab separator or an unknown source tag.
    BadLine {
        /// 1-based line number.
        line: usize,
    },
    /// A query failed to parse against the database.
    BadQuery {
        /// 1-based line number.
        line: usize,
        /// Underlying parse error.
        error: ParseError,
    },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::BadHeader => write!(f, "missing #subdex-session header"),
            LogError::BadLine { line } => write!(f, "line {line}: malformed log line"),
            LogError::BadQuery { line, error } => write!(f, "line {line}: {error}"),
        }
    }
}

impl std::error::Error for LogError {}

const HEADER: &str = "#subdex-session v1";

impl SessionLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one operation.
    pub fn record(&mut self, source: OpSource, query: SelectionQuery) {
        self.entries.push(LogEntry { source, query });
    }

    /// All entries in order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of logged operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes to the line-based format (schema names resolved through
    /// `db`).
    pub fn serialize(&self, db: &SubjectiveDb) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for e in &self.entries {
            out.push_str(e.source.tag());
            out.push('\t');
            out.push_str(&db.describe_query(&e.query));
            out.push('\n');
        }
        out
    }

    /// Serializes to the line-based format with one `#`-prefixed timing
    /// comment per step, rendered from that step's [`StepStats`] (the
    /// per-phase breakdown of [`crate::plan::PhaseTimes`]). Comments are
    /// ignored by [`SessionLog::deserialize`], so the stats-annotated form
    /// round-trips to the same entries as the plain one. `stats` pairs
    /// positionally with the entries; extra or missing stats are tolerated
    /// (entries without one get no comment).
    pub fn serialize_with_stats(&self, db: &SubjectiveDb, stats: &[StepStats]) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(e.source.tag());
            out.push('\t');
            out.push_str(&db.describe_query(&e.query));
            out.push('\n');
            if let Some(s) = stats.get(i) {
                out.push_str(&format!(
                    "# step {i}: total {}µs | groups {}µs | scan {}µs | generate {}µs | \
                     select {}µs | recommend {}µs\n",
                    s.elapsed.as_micros(),
                    s.phases.scan_groups.as_micros(),
                    s.phases.scan.as_micros(),
                    s.phases.generate.as_micros(),
                    s.phases.select.as_micros(),
                    s.phases.recommend.as_micros(),
                ));
            }
        }
        out
    }

    /// Parses a serialized log against a database. Lines starting with `#`
    /// (e.g. the per-step timing comments of
    /// [`SessionLog::serialize_with_stats`]) are skipped.
    pub fn deserialize(db: &SubjectiveDb, text: &str) -> Result<Self, LogError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, h)) if h.trim() == HEADER => {}
            _ => return Err(LogError::BadHeader),
        }
        let mut log = SessionLog::new();
        for (i, line) in lines {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let line_no = i + 1;
            let Some((tag, query_text)) = line.split_once('\t') else {
                return Err(LogError::BadLine { line: line_no });
            };
            let Some(source) = OpSource::from_tag(tag.trim()) else {
                return Err(LogError::BadLine { line: line_no });
            };
            let query = parse_query(db, query_text).map_err(|error| LogError::BadQuery {
                line: line_no,
                error,
            })?;
            log.record(source, query);
        }
        Ok(log)
    }

    /// Replays the logged operations on a fresh engine, returning each
    /// step's result. With the same configuration (and seed) as the
    /// original session, the results are identical to the original run.
    pub fn replay(
        &self,
        db: std::sync::Arc<SubjectiveDb>,
        config: EngineConfig,
    ) -> Vec<StepResult> {
        let mut engine = SdeEngine::new(db, config);
        self.entries.iter().map(|e| engine.step(&e.query)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use subdex_store::{Cell, Entity, EntityTableBuilder, RatingTableBuilder, Schema, Value};

    fn db() -> Arc<SubjectiveDb> {
        let mut us = Schema::new();
        us.add("age", false);
        let mut ub = EntityTableBuilder::new(us);
        for i in 0..6 {
            ub.push_row(vec![Cell::from(if i % 2 == 0 { "young" } else { "old" })]);
        }
        let mut is = Schema::new();
        is.add("city", false);
        let mut ib = EntityTableBuilder::new(is);
        for i in 0..4 {
            ib.push_row(vec![Cell::from(if i < 2 { "NYC" } else { "SF" })]);
        }
        let mut rb = RatingTableBuilder::new(vec!["overall".into(), "food".into()], 5);
        for r in 0..6u32 {
            for i in 0..4u32 {
                rb.push(
                    r,
                    i,
                    &[1 + ((r + i) % 5) as u8, 1 + ((r * 2 + i) % 5) as u8],
                );
            }
        }
        Arc::new(SubjectiveDb::new(ub.build(), ib.build(), rb.build(6, 4)))
    }

    fn sample_log(db: &SubjectiveDb) -> SessionLog {
        let mut log = SessionLog::new();
        log.record(OpSource::User, SelectionQuery::all());
        let young = db
            .pred(Entity::Reviewer, "age", &Value::str("young"))
            .unwrap();
        log.record(
            OpSource::Recommendation,
            SelectionQuery::from_preds(vec![young]),
        );
        let nyc = db.pred(Entity::Item, "city", &Value::str("NYC")).unwrap();
        log.record(OpSource::Auto, SelectionQuery::from_preds(vec![young, nyc]));
        log
    }

    #[test]
    fn round_trip() {
        let db = db();
        let log = sample_log(&db);
        let text = log.serialize(&db);
        assert!(text.starts_with(HEADER));
        let back = SessionLog::deserialize(&db, &text).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn serialized_form_is_readable() {
        let db = db();
        let text = sample_log(&db).serialize(&db);
        assert!(text.contains("user\t*"));
        assert!(text.contains("recommendation\treviewer.age = young"));
        assert!(text.contains("auto\t"));
    }

    #[test]
    fn replay_reproduces_a_session() {
        let db = db();
        let cfg = EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        };
        // Original session.
        let mut engine = SdeEngine::new(db.clone(), cfg);
        let mut log = SessionLog::new();
        let q0 = SelectionQuery::all();
        let r0 = engine.step(&q0);
        log.record(OpSource::User, q0);
        let q1 = r0.recommendations[0].query.clone();
        let r1 = engine.step(&q1);
        log.record(OpSource::Recommendation, q1);

        // Replay (optionally through serialization).
        let text = log.serialize(&db);
        let loaded = SessionLog::deserialize(&db, &text).unwrap();
        let replayed = loaded.replay(db.clone(), cfg);
        assert_eq!(replayed.len(), 2);
        for (orig, rep) in [r0, r1].iter().zip(&replayed) {
            assert_eq!(orig.query, rep.query);
            assert_eq!(orig.group_size, rep.group_size);
            let ok: Vec<_> = orig.maps.iter().map(|m| m.map.key).collect();
            let rk: Vec<_> = rep.maps.iter().map(|m| m.map.key).collect();
            assert_eq!(ok, rk, "replay shows identical maps");
        }
    }

    #[test]
    fn stats_annotated_log_round_trips() {
        let db = db();
        let cfg = EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        };
        let mut engine = SdeEngine::new(db.clone(), cfg);
        let mut log = SessionLog::new();
        let mut stats = Vec::new();
        let q0 = SelectionQuery::all();
        let r0 = engine.step(&q0);
        log.record(OpSource::User, q0);
        stats.push(r0.stats);
        let q1 = r0.recommendations[0].query.clone();
        let r1 = engine.step(&q1);
        log.record(OpSource::Recommendation, q1);
        stats.push(r1.stats);

        let text = log.serialize_with_stats(&db, &stats);
        // One timing comment per step, each carrying the phase breakdown.
        assert_eq!(text.lines().filter(|l| l.starts_with("# step")).count(), 2);
        assert!(text.contains("# step 0: total "));
        assert!(text.contains("| select "));
        assert!(text.contains("| recommend "));

        // Comments are ignored on load: both forms parse to the same log,
        // and the annotated form replays to the same steps.
        let back = SessionLog::deserialize(&db, &text).unwrap();
        assert_eq!(back, log);
        assert_eq!(
            SessionLog::deserialize(&db, &log.serialize(&db)).unwrap(),
            back
        );
        let replayed = back.replay(db.clone(), cfg);
        let keys = |r: &StepResult| r.maps.iter().map(|m| m.map.key).collect::<Vec<_>>();
        assert_eq!(keys(&replayed[0]), keys(&r0));
        assert_eq!(keys(&replayed[1]), keys(&r1));
    }

    #[test]
    fn error_cases() {
        let db = db();
        assert_eq!(
            SessionLog::deserialize(&db, "not a log").unwrap_err(),
            LogError::BadHeader
        );
        let bad_line = format!("{HEADER}\nnonsense-without-tab\n");
        assert_eq!(
            SessionLog::deserialize(&db, &bad_line).unwrap_err(),
            LogError::BadLine { line: 2 }
        );
        let bad_tag = format!("{HEADER}\nrobot\t*\n");
        assert_eq!(
            SessionLog::deserialize(&db, &bad_tag).unwrap_err(),
            LogError::BadLine { line: 2 }
        );
        let bad_query = format!("{HEADER}\nuser\titem.city = Atlantis\n");
        assert!(matches!(
            SessionLog::deserialize(&db, &bad_query).unwrap_err(),
            LogError::BadQuery { line: 2, .. }
        ));
    }

    #[test]
    fn empty_log_round_trip() {
        let db = db();
        let log = SessionLog::new();
        assert!(log.is_empty());
        let back = SessionLog::deserialize(&db, &log.serialize(&db)).unwrap();
        assert!(back.is_empty());
        assert!(back.replay(db, EngineConfig::default()).is_empty());
    }
}
