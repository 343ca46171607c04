//! The query type of the serving layer and its wire format.
//!
//! On the wire a query is one JSON object per line (JSONL):
//!
//! ```json
//! {"id": 7, "kind": "SPA", "algorithm": "LCMD", "task": [3, 19, 4]}
//! ```
//!
//! * `task` (required) — skill ids to cover.
//! * `kind` (optional, default `"SPA"`) — compatibility relation label.
//! * `algorithm` (optional, default `"LCMD"`) — greedy policy label, or
//!   `"EXHAUSTIVE"` for the exact solver.
//! * `id` (optional) — opaque correlation id echoed in the answer.
//! * `objective` (optional) — team objective: the label `"min_team"`,
//!   `"synergy"` or `"constrained"`, or an object such as
//!   `{"kind": "constrained", "include": [3, 9], "max_size": 4,
//!   "max_distance": 3}`. Absent means the default min-diameter objective
//!   and leaves the answer byte-identical to the pre-objective protocol.
//! * `max_seeds`, `skill_degree_cap`, `random_seed` (optional) — greedy
//!   tuning overrides.
//!
//! The serde impls are hand-written (rather than derived) so the wire format
//! uses the paper's short labels instead of Rust enum structure.

use serde::{Deserialize, Error as SerdeError, JsonWriter, Serialize, Value};
use tfsn_core::compat::CompatibilityKind;
use tfsn_core::team::greedy::GreedyConfig;
use tfsn_core::team::policies::TeamAlgorithm;
use tfsn_core::team::{Objective, Solver};

/// One team-formation query against a deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct TeamQuery {
    /// Opaque correlation id echoed in the answer.
    pub id: Option<u64>,
    /// Skill ids the team must cover.
    pub task: Vec<usize>,
    /// Compatibility relation to use.
    pub kind: CompatibilityKind,
    /// How to solve the query.
    pub solver: Solver,
    /// Team objective (`None` = the default min-diameter objective; the
    /// wire format then stays byte-identical to the pre-objective
    /// protocol).
    pub objective: Option<Objective>,
}

impl TeamQuery {
    /// A query with the default relation (SPA) and solver (greedy LCMD).
    pub fn new(task: impl IntoIterator<Item = usize>) -> Self {
        TeamQuery {
            id: None,
            task: task.into_iter().collect(),
            kind: CompatibilityKind::Spa,
            solver: Solver::default_greedy(),
            objective: None,
        }
    }

    /// Sets the correlation id.
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = Some(id);
        self
    }

    /// Sets the compatibility relation.
    pub fn with_kind(mut self, kind: CompatibilityKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the solver.
    pub fn with_solver(mut self, solver: Solver) -> Self {
        self.solver = solver;
        self
    }

    /// Sets the team objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = Some(objective);
        self
    }
}

/// Writes an [`Objective`] in its wire form: a bare label for the
/// parameterless objectives, an object (`kind` + constraint fields, `None`s
/// omitted) for the constrained one.
fn write_objective(w: &mut JsonWriter<'_>, objective: &Objective) {
    match objective {
        Objective::MinTeam | Objective::Synergy => w.str(objective.label()),
        Objective::Constrained {
            include,
            max_size,
            max_distance,
        } => {
            let mut m = w.object();
            m.field("kind", "constrained");
            if !include.is_empty() {
                m.field("include", include);
            }
            if let Some(k) = max_size {
                m.field("max_size", k);
            }
            if let Some(d) = max_distance {
                m.field("max_distance", d);
            }
            m.end();
        }
    }
}

/// Parses the wire form of an [`Objective`]: a string label
/// (`"min_team"`, `"synergy"`, `"constrained"`) or an object carrying a
/// `kind` label plus the constrained objective's `include` / `max_size` /
/// `max_distance` fields. Unknown specs are echoed back in the error so the
/// protocol layer can surface them in a typed `bad_request`.
pub fn objective_from_value(v: &Value) -> Result<Objective, SerdeError> {
    let parse_label = |label: &str| match label.to_ascii_lowercase().as_str() {
        "min_team" => Some(Objective::MinTeam),
        "synergy" => Some(Objective::Synergy),
        "constrained" => Some(Objective::Constrained {
            include: Vec::new(),
            max_size: None,
            max_distance: None,
        }),
        _ => None,
    };
    match v {
        Value::Str(label) => parse_label(label).ok_or_else(|| {
            SerdeError::custom(format!(
                "unknown objective `{label}` (expected min_team, synergy, or constrained)"
            ))
        }),
        Value::Map(map) => {
            let field = |key: &str| map.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            let kind_label = field("kind").and_then(Value::as_str).ok_or_else(|| {
                SerdeError::custom(
                    "objective object must carry a string `kind` \
                         (min_team, synergy, or constrained)",
                )
            })?;
            let base = parse_label(kind_label).ok_or_else(|| {
                SerdeError::custom(format!(
                    "unknown objective kind `{kind_label}` (expected min_team, synergy, or constrained)"
                ))
            })?;
            let Objective::Constrained { .. } = base else {
                // The parameterless objectives accept (and ignore) no
                // constraint fields; reject them loudly rather than letting
                // a misplaced `max_size` silently do nothing.
                for (k, _) in map {
                    if k != "kind" {
                        return Err(SerdeError::custom(format!(
                            "objective `{kind_label}` accepts no field `{k}` \
                             (constraints belong to the constrained objective)"
                        )));
                    }
                }
                return Ok(base);
            };
            let include = match field("include") {
                Some(Value::Null) | None => Vec::new(),
                Some(v) => Vec::<usize>::from_value(v)
                    .map_err(|e| SerdeError::custom(format!("objective field `include`: {e}")))?,
            };
            let max_size =
                match field("max_size") {
                    Some(Value::Null) | None => None,
                    Some(v) => Some(usize::from_value(v).map_err(|e| {
                        SerdeError::custom(format!("objective field `max_size`: {e}"))
                    })?),
                };
            let max_distance = match field("max_distance") {
                Some(Value::Null) | None => None,
                Some(v) => Some(u32::from_value(v).map_err(|e| {
                    SerdeError::custom(format!("objective field `max_distance`: {e}"))
                })?),
            };
            Ok(Objective::Constrained {
                include,
                max_size,
                max_distance,
            })
        }
        _ => Err(SerdeError::custom(
            "field `objective` must be a string label or an object",
        )),
    }
}

impl Serialize for TeamQuery {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        let mut m = w.object();
        if let Some(id) = self.id {
            m.field("id", &id);
        }
        m.field("kind", self.kind.label());
        match &self.solver {
            Solver::Greedy { algorithm, config } => {
                m.field("algorithm", algorithm.label());
                let defaults = GreedyConfig::default();
                if config.max_seeds != defaults.max_seeds {
                    m.field("max_seeds", &config.max_seeds);
                }
                if config.skill_degree_cap != defaults.skill_degree_cap {
                    m.field("skill_degree_cap", &config.skill_degree_cap);
                }
                if config.random_seed != defaults.random_seed {
                    m.field("random_seed", &config.random_seed);
                }
            }
            Solver::Exhaustive => m.field("algorithm", "EXHAUSTIVE"),
        }
        if let Some(objective) = &self.objective {
            m.field_with("objective", |w| write_objective(w, objective));
        }
        m.field("task", &self.task);
        m.end();
    }
}

impl Deserialize for TeamQuery {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let map = v
            .as_map()
            .ok_or_else(|| SerdeError::custom("query must be a JSON object"))?;
        let field = |key: &str| map.iter().find(|(k, _)| k == key).map(|(_, v)| v);

        let task: Vec<usize> = match field("task") {
            Some(t) => Vec::<usize>::from_value(t)
                .map_err(|e| SerdeError::custom(format!("field `task`: {e}")))?,
            None => return Err(SerdeError::custom("query is missing required field `task`")),
        };

        let id =
            match field("id") {
                Some(Value::Null) | None => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    SerdeError::custom("field `id` must be a non-negative integer")
                })?),
            };

        let kind = match field("kind") {
            None => CompatibilityKind::Spa,
            Some(v) => {
                let label = v
                    .as_str()
                    .ok_or_else(|| SerdeError::custom("field `kind` must be a string label"))?;
                CompatibilityKind::parse(label).ok_or_else(|| {
                    SerdeError::custom(format!(
                        "unknown compatibility kind `{label}` (expected one of DPE, SPA, SPM, SPO, SBPH, SBP, NNE)"
                    ))
                })?
            }
        };

        let algorithm_label = match field("algorithm") {
            None => "LCMD".to_string(),
            Some(v) => v
                .as_str()
                .ok_or_else(|| SerdeError::custom("field `algorithm` must be a string label"))?
                .to_ascii_uppercase(),
        };
        let solver = if algorithm_label == "EXHAUSTIVE" {
            Solver::Exhaustive
        } else {
            let algorithm = TeamAlgorithm::parse(&algorithm_label).ok_or_else(|| {
                SerdeError::custom(format!(
                    "unknown algorithm `{algorithm_label}` (expected LCMD, LCMC, RFMD, RFMC, RANDOM, or EXHAUSTIVE)"
                ))
            })?;
            let mut config = GreedyConfig::default();
            if let Some(v) = field("max_seeds") {
                config.max_seeds = Option::<usize>::from_value(v)
                    .map_err(|e| SerdeError::custom(format!("field `max_seeds`: {e}")))?;
            }
            if let Some(v) = field("skill_degree_cap") {
                config.skill_degree_cap = Option::<usize>::from_value(v)
                    .map_err(|e| SerdeError::custom(format!("field `skill_degree_cap`: {e}")))?;
            }
            if let Some(v) = field("random_seed") {
                config.random_seed = u64::from_value(v)
                    .map_err(|e| SerdeError::custom(format!("field `random_seed`: {e}")))?;
            }
            Solver::Greedy { algorithm, config }
        };

        let objective = match field("objective") {
            Some(Value::Null) | None => None,
            Some(v) => Some(
                objective_from_value(v)
                    .map_err(|e| SerdeError::custom(format!("field `objective`: {e}")))?,
            ),
        };

        Ok(TeamQuery {
            id,
            task,
            kind,
            solver,
            objective,
        })
    }
}

/// Why a [`QueryReader`] (or any JSONL record stream) failed to yield a
/// record. `Truncated` is the interesting variant: a final line with no
/// trailing newline that does not parse is a chopped record — a partial
/// upload or a crash mid-write — and callers get the byte offset where the
/// partial record starts so they can resume or truncate there. (A final
/// line without a newline that *does* parse is accepted; hand-written files
/// routinely omit the last newline.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryReadError {
    /// A line was not a valid record.
    Parse {
        /// 1-based line number of the offending line.
        lineno: usize,
        /// The parse error.
        detail: String,
    },
    /// The input ended mid-record: the final line had no trailing newline
    /// and did not parse as a complete record.
    Truncated {
        /// 1-based line number of the partial record.
        lineno: usize,
        /// Byte offset (from the start of the input) where the partial
        /// record begins — the safe truncation/resume point.
        offset: u64,
        /// The parse error the partial record produced.
        detail: String,
    },
    /// The underlying reader failed.
    Io {
        /// 1-based line number being read when the reader failed.
        lineno: usize,
        /// The I/O error.
        detail: String,
    },
}

impl std::fmt::Display for QueryReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryReadError::Parse { lineno, detail } => write!(f, "line {lineno}: {detail}"),
            QueryReadError::Truncated {
                lineno,
                offset,
                detail,
            } => write!(
                f,
                "line {lineno}: input truncated at byte {offset}: final record has no \
                 trailing newline and is not complete ({detail})"
            ),
            QueryReadError::Io { lineno, detail } => {
                write!(f, "line {lineno}: read error: {detail}")
            }
        }
    }
}

impl std::error::Error for QueryReadError {}

/// An incremental JSONL query reader: one [`TeamQuery`] per input line,
/// blank lines and `#` comments skipped, errors carrying the 1-based line
/// number. Unlike collecting the whole input up front, iterating lets the
/// serving layer stream bounded chunks through the engine — a million-query
/// file never holds all queries (plus their answers) in memory at once.
#[derive(Debug)]
pub struct QueryReader<R> {
    reader: R,
    line: String,
    lineno: usize,
    offset: u64,
    done: bool,
}

impl<R: std::io::BufRead> QueryReader<R> {
    /// Wraps a buffered reader.
    pub fn new(reader: R) -> Self {
        QueryReader {
            reader,
            line: String::new(),
            lineno: 0,
            offset: 0,
            done: false,
        }
    }

    /// The 1-based number of the last line yielded (0 before the first).
    pub fn line_number(&self) -> usize {
        self.lineno
    }

    /// Bytes consumed from the input so far (through the end of the last
    /// line read).
    pub fn byte_offset(&self) -> u64 {
        self.offset
    }
}

impl<R: std::io::BufRead> Iterator for QueryReader<R> {
    type Item = Result<TeamQuery, QueryReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            self.line.clear();
            self.lineno += 1;
            let line_start = self.offset;
            match self.reader.read_line(&mut self.line) {
                Ok(0) => {
                    self.done = true;
                    return None;
                }
                Ok(n) => self.offset += n as u64,
                Err(e) => {
                    // Fuse on read failures: a persistent I/O error (dying
                    // disk) would otherwise make callers that skip errors
                    // retry the same read forever. (Parse errors do NOT
                    // fuse — later lines are still readable.)
                    self.done = true;
                    return Some(Err(QueryReadError::Io {
                        lineno: self.lineno,
                        detail: e.to_string(),
                    }));
                }
            }
            let trimmed = self.line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let lineno = self.lineno;
            return Some(serde_json::from_str(trimmed).map_err(|e| {
                if self.line.ends_with('\n') {
                    QueryReadError::Parse {
                        lineno,
                        detail: e.to_string(),
                    }
                } else {
                    // No trailing newline and no parse: the input was
                    // chopped mid-record (partial upload, crash mid-write).
                    QueryReadError::Truncated {
                        lineno,
                        offset: line_start,
                        detail: e.to_string(),
                    }
                }
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_streams_queries_and_numbers_errors() {
        let input = "{\"task\": [1]}\n\n# comment\n{\"task\": [2, 3]}\nnot-json\n";
        let mut reader = QueryReader::new(std::io::Cursor::new(input));
        assert_eq!(reader.next().unwrap().unwrap().task, vec![1]);
        assert_eq!(reader.next().unwrap().unwrap().task, vec![2, 3]);
        assert_eq!(reader.line_number(), 4);
        let err = reader.next().unwrap().unwrap_err();
        assert!(
            matches!(err, QueryReadError::Parse { lineno: 5, .. }),
            "got: {err:?}"
        );
        assert!(err.to_string().starts_with("line 5:"), "got: {err}");
        assert!(reader.next().is_none());
    }

    #[test]
    fn truncated_final_record_is_typed_with_byte_offset() {
        // The final line is chopped mid-record and has no trailing newline:
        // the reader reports a typed truncation carrying the byte offset
        // where the partial record starts.
        let good = "{\"task\": [1]}\n";
        let input = format!("{good}{{\"task\": [2, ");
        let mut reader = QueryReader::new(std::io::Cursor::new(input));
        assert_eq!(reader.next().unwrap().unwrap().task, vec![1]);
        let err = reader.next().unwrap().unwrap_err();
        match &err {
            QueryReadError::Truncated { lineno, offset, .. } => {
                assert_eq!(*lineno, 2);
                assert_eq!(*offset, good.len() as u64);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("truncated at byte 14"), "got: {msg}");

        // A final line without a newline that IS complete still parses —
        // hand-written files routinely omit the last newline.
        let mut reader = QueryReader::new(std::io::Cursor::new("{\"task\": [7]}"));
        assert_eq!(reader.next().unwrap().unwrap().task, vec![7]);
        assert!(reader.next().is_none());

        // And a malformed line WITH a newline stays a plain parse error.
        let mut reader = QueryReader::new(std::io::Cursor::new("{\"task\": [2, \n"));
        assert!(matches!(
            reader.next().unwrap().unwrap_err(),
            QueryReadError::Parse { lineno: 1, .. }
        ));
    }

    #[test]
    fn minimal_query_parses_with_defaults() {
        let q: TeamQuery = serde_json::from_str(r#"{"task": [1, 2, 3]}"#).unwrap();
        assert_eq!(q.task, vec![1, 2, 3]);
        assert_eq!(q.kind, CompatibilityKind::Spa);
        assert_eq!(q.solver.label(), "LCMD");
        assert_eq!(q.id, None);
    }

    #[test]
    fn full_query_round_trips() {
        let json =
            r#"{"id": 9, "kind": "sbph", "algorithm": "rfmc", "max_seeds": 7, "task": [0, 4]}"#;
        let q: TeamQuery = serde_json::from_str(json).unwrap();
        assert_eq!(q.id, Some(9));
        assert_eq!(q.kind, CompatibilityKind::Sbph);
        match &q.solver {
            Solver::Greedy { algorithm, config } => {
                assert_eq!(algorithm.label(), "RFMC");
                assert_eq!(config.max_seeds, Some(7));
            }
            other => panic!("unexpected solver {other:?}"),
        }
        let back: TeamQuery = serde_json::from_str(&serde_json::to_string(&q).unwrap()).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn exhaustive_solver_parses() {
        let q: TeamQuery =
            serde_json::from_str(r#"{"task": [1], "algorithm": "EXHAUSTIVE", "kind": "NNE"}"#)
                .unwrap();
        assert_eq!(q.solver, Solver::Exhaustive);
        assert_eq!(q.kind, CompatibilityKind::Nne);
        let back: TeamQuery = serde_json::from_str(&serde_json::to_string(&q).unwrap()).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn objective_specs_round_trip() {
        // Absent objective parses to None and stays absent on the wire.
        let q: TeamQuery = serde_json::from_str(r#"{"task": [1]}"#).unwrap();
        assert_eq!(q.objective, None);
        assert!(!serde_json::to_string(&q).unwrap().contains("objective"));
        // Every variant round-trips through its wire form.
        for objective in [
            Objective::MinTeam,
            Objective::Synergy,
            Objective::Constrained {
                include: vec![],
                max_size: None,
                max_distance: None,
            },
            Objective::Constrained {
                include: vec![3, 9],
                max_size: Some(4),
                max_distance: Some(3),
            },
        ] {
            let q = TeamQuery::new([1, 2]).with_objective(objective.clone());
            let json = serde_json::to_string(&q).unwrap();
            let back: TeamQuery = serde_json::from_str(&json).unwrap();
            assert_eq!(back.objective, Some(objective), "wire: {json}");
            assert_eq!(back, q);
        }
        // The string and object spellings parse identically.
        let s: TeamQuery =
            serde_json::from_str(r#"{"task": [1], "objective": "synergy"}"#).unwrap();
        let o: TeamQuery =
            serde_json::from_str(r#"{"task": [1], "objective": {"kind": "SYNERGY"}}"#).unwrap();
        assert_eq!(s.objective, Some(Objective::Synergy));
        assert_eq!(s.objective, o.objective);
    }

    #[test]
    fn objective_errors_echo_the_offending_spec() {
        let err =
            serde_json::from_str::<TeamQuery>(r#"{"task": [1], "objective": "densest_subgraph"}"#)
                .unwrap_err()
                .to_string();
        assert!(err.contains("densest_subgraph"), "got: {err}");
        assert!(err.contains("objective"), "got: {err}");
        let err = serde_json::from_str::<TeamQuery>(
            r#"{"task": [1], "objective": {"kind": "nope", "max_size": 3}}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("nope"), "got: {err}");
        // Constraint fields on a parameterless objective are rejected, not
        // silently ignored.
        let err = serde_json::from_str::<TeamQuery>(
            r#"{"task": [1], "objective": {"kind": "synergy", "max_size": 3}}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("max_size"), "got: {err}");
        // Non-string, non-object specs are rejected.
        assert!(serde_json::from_str::<TeamQuery>(r#"{"task": [1], "objective": 7}"#).is_err());
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(serde_json::from_str::<TeamQuery>(r#"{"kind": "SPA"}"#)
            .unwrap_err()
            .to_string()
            .contains("task"));
        assert!(
            serde_json::from_str::<TeamQuery>(r#"{"task": [], "kind": "XXX"}"#)
                .unwrap_err()
                .to_string()
                .contains("XXX")
        );
        assert!(
            serde_json::from_str::<TeamQuery>(r#"{"task": [], "algorithm": "nope"}"#)
                .unwrap_err()
                .to_string()
                .contains("NOPE")
        );
    }
}
