//! The answer type of the serving layer and its wire format.
//!
//! One JSON object per line, mirroring the query:
//!
//! ```json
//! {"id": 7, "status": "ok", "kind": "SPA", "algorithm": "LCMD",
//!  "members": [12, 40, 77], "cardinality": 3, "diameter": 2,
//!  "micros": 184, "build_micros": 0, "cache_hit": true}
//! ```
//!
//! `status` is `"ok"`, `"no_team"` (no compatible covering team exists or
//! the heuristic found none), `"uncoverable"` (some skill has no holder),
//! or `"budget_exceeded"` (the exact solver refused the instance size).

use serde::{Deserialize, Error as SerdeError, JsonWriter, Serialize, Value};
use tfsn_core::compat::CompatibilityKind;
use tfsn_core::TfsnError;

/// Outcome category of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerStatus {
    /// A compatible covering team was found.
    Ok,
    /// No compatible covering team was found.
    NoTeam,
    /// Some required skill has no holder in the deployment.
    Uncoverable,
    /// The exact solver's instance-size budget was exceeded.
    BudgetExceeded,
}

impl AnswerStatus {
    /// Every status, for exhaustive wire-format tests.
    pub const ALL: [AnswerStatus; 4] = [
        AnswerStatus::Ok,
        AnswerStatus::NoTeam,
        AnswerStatus::Uncoverable,
        AnswerStatus::BudgetExceeded,
    ];

    /// The wire label.
    pub fn label(self) -> &'static str {
        match self {
            AnswerStatus::Ok => "ok",
            AnswerStatus::NoTeam => "no_team",
            AnswerStatus::Uncoverable => "uncoverable",
            AnswerStatus::BudgetExceeded => "budget_exceeded",
        }
    }

    /// Parses a wire label.
    pub fn parse(label: &str) -> Option<Self> {
        match label {
            "ok" => Some(AnswerStatus::Ok),
            "no_team" => Some(AnswerStatus::NoTeam),
            "uncoverable" => Some(AnswerStatus::Uncoverable),
            "budget_exceeded" => Some(AnswerStatus::BudgetExceeded),
            _ => None,
        }
    }

    /// Maps a solver error to its answer status.
    pub fn from_error(e: &TfsnError) -> Self {
        match e {
            TfsnError::NoCompatibleTeam => AnswerStatus::NoTeam,
            TfsnError::UncoverableSkill(_) => AnswerStatus::Uncoverable,
            TfsnError::SearchBudgetExceeded => AnswerStatus::BudgetExceeded,
            // Deployment-level mismatches cannot occur per-query (the
            // deployment validated them), but map them conservatively.
            _ => AnswerStatus::NoTeam,
        }
    }
}

/// The structured answer to one [`crate::TeamQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct TeamAnswer {
    /// Correlation id copied from the query.
    pub id: Option<u64>,
    /// Outcome category.
    pub status: AnswerStatus,
    /// Relation the query ran under.
    pub kind: CompatibilityKind,
    /// Solver label ("LCMD", "EXHAUSTIVE", …).
    pub algorithm: String,
    /// Team member user ids (ascending; empty unless `status == ok`).
    pub members: Vec<usize>,
    /// Number of members.
    pub cardinality: usize,
    /// Team diameter under the relation's distance, when defined.
    pub diameter: Option<u32>,
    /// In-engine latency of this query, in microseconds.
    pub micros: u64,
    /// Slice of `micros` spent building relation state (matrix build, row
    /// computations) or blocked on another query's in-flight matrix build.
    pub build_micros: u64,
    /// `true` iff this query performed no build work itself: everything it
    /// touched was resident, or it only waited on a build another query was
    /// running. Misses therefore equal build events exactly.
    pub cache_hit: bool,
    /// Objective label echoed from the query (`None` when the query named
    /// no objective — the field is then absent on the wire, keeping legacy
    /// answers byte-identical).
    pub objective: Option<String>,
    /// Objective score of the team: total milli-synergy for the synergy
    /// objective, the minimised diameter for the constrained one. `None`
    /// for the default objective and for unsolved queries.
    pub score: Option<u64>,
}

impl TeamAnswer {
    /// Zeroes the latency fields (`micros`, `build_micros`), the only
    /// run-dependent part of an answer. The protocol's `timing: false`
    /// option applies this so the same warm query stream yields
    /// byte-identical JSONL on every transport and run.
    pub fn strip_timing(&mut self) {
        self.micros = 0;
        self.build_micros = 0;
    }
}

impl Serialize for TeamAnswer {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        let mut m = w.object();
        if let Some(id) = self.id {
            m.field("id", &id);
        }
        m.field("status", self.status.label());
        m.field("kind", self.kind.label());
        m.field("algorithm", &self.algorithm);
        m.field("members", &self.members);
        m.field("cardinality", &self.cardinality);
        m.field("diameter", &self.diameter);
        m.field("micros", &self.micros);
        m.field("build_micros", &self.build_micros);
        m.field("cache_hit", &self.cache_hit);
        // Objective fields appear only for objective-carrying queries, so
        // legacy (no-objective) answers stay byte-identical.
        if let Some(objective) = &self.objective {
            m.field("objective", objective);
            m.field("score", &self.score);
        }
        m.end();
    }
}

impl Deserialize for TeamAnswer {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let field = |key: &str| v.get(key);
        let status_label = field("status")
            .and_then(Value::as_str)
            .ok_or_else(|| SerdeError::custom("answer is missing `status`"))?;
        let status = AnswerStatus::parse(status_label)
            .ok_or_else(|| SerdeError::custom(format!("unknown status `{status_label}`")))?;
        let kind_label = field("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| SerdeError::custom("answer is missing `kind`"))?;
        let kind = CompatibilityKind::parse(kind_label)
            .ok_or_else(|| SerdeError::custom(format!("unknown kind `{kind_label}`")))?;
        let members = match field("members") {
            Some(m) => Vec::<usize>::from_value(m)?,
            None => Vec::new(),
        };
        Ok(TeamAnswer {
            id: field("id").and_then(Value::as_u64),
            status,
            kind,
            algorithm: field("algorithm")
                .and_then(Value::as_str)
                .unwrap_or("LCMD")
                .to_string(),
            cardinality: field("cardinality")
                .and_then(Value::as_u64)
                .map(|c| c as usize)
                .unwrap_or(members.len()),
            members,
            diameter: match field("diameter") {
                Some(Value::Null) | None => None,
                Some(d) => Some(u32::from_value(d)?),
            },
            micros: field("micros").and_then(Value::as_u64).unwrap_or(0),
            build_micros: field("build_micros").and_then(Value::as_u64).unwrap_or(0),
            cache_hit: matches!(field("cache_hit"), Some(Value::Bool(true))),
            objective: field("objective")
                .and_then(Value::as_str)
                .map(str::to_string),
            score: field("score").and_then(Value::as_u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_round_trips() {
        let a = TeamAnswer {
            id: Some(3),
            status: AnswerStatus::Ok,
            kind: CompatibilityKind::Spo,
            algorithm: "LCMD".to_string(),
            members: vec![1, 5, 9],
            cardinality: 3,
            diameter: Some(2),
            micros: 120,
            build_micros: 40,
            cache_hit: true,
            objective: None,
            score: None,
        };
        let json = serde_json::to_string(&a).unwrap();
        assert!(json.contains("\"status\":\"ok\""));
        assert!(json.contains("\"kind\":\"SPO\""));
        assert!(
            !json.contains("objective"),
            "objective-less answers must omit the objective fields: {json}"
        );
        let back: TeamAnswer = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        // Objective-carrying answers round-trip label and score.
        let scored = TeamAnswer {
            objective: Some("synergy".to_string()),
            score: Some(4500),
            ..a
        };
        let json = serde_json::to_string(&scored).unwrap();
        assert!(json.contains("\"objective\":\"synergy\""));
        assert!(json.contains("\"score\":4500"));
        let back: TeamAnswer = serde_json::from_str(&json).unwrap();
        assert_eq!(back, scored);
    }

    #[test]
    fn statuses_round_trip() {
        for s in [
            AnswerStatus::Ok,
            AnswerStatus::NoTeam,
            AnswerStatus::Uncoverable,
            AnswerStatus::BudgetExceeded,
        ] {
            assert_eq!(AnswerStatus::parse(s.label()), Some(s));
        }
        assert_eq!(AnswerStatus::parse("bogus"), None);
    }

    #[test]
    fn error_mapping() {
        assert_eq!(
            AnswerStatus::from_error(&TfsnError::NoCompatibleTeam),
            AnswerStatus::NoTeam
        );
        assert_eq!(
            AnswerStatus::from_error(&TfsnError::SearchBudgetExceeded),
            AnswerStatus::BudgetExceeded
        );
    }
}
