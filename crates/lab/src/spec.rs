//! The declarative scenario schema.
//!
//! A [`ScenarioSpec`] is a plain JSON document that names everything one
//! batch experiment needs: a [`GraphSource`], a [`Task`] (what to do with
//! each instance), a trial count and a base seed. The runner derives one
//! seed per trial with `derive_seed`, so the whole run is reproducible from
//! the spec alone — two runs of the same spec produce byte-identical JSON
//! reports.
//!
//! ```json
//! {
//!   "name": "expander-wireless",
//!   "description": "wireless expansion of random 4-regular graphs",
//!   "source": {"RandomRegular": {"n": 64, "d": 4}},
//!   "task": {"Measure": {"notion": "Wireless"}},
//!   "trials": 8,
//!   "seed": 7
//! }
//! ```

use crate::error::{LabError, Result};
use crate::source::GraphSource;
use serde::{Deserialize, Serialize};
use wx_core::expansion::engine::NotionKind;
use wx_core::radio::protocols::ProtocolKind;
use wx_core::spokesman::{ExactSolver, SolverKind};

/// What a scenario does with each graph instance.
///
/// All knobs beyond the discriminating ones are `Option`al with documented
/// defaults, so minimal JSON stays minimal.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Task {
    /// Measure one expansion notion through the `MeasurementEngine`.
    Measure {
        /// Which notion (`"Ordinary"`, `"Unique"`, `"Wireless"`).
        notion: NotionKind,
        /// Size-cap fraction `α` (default 0.5).
        alpha: Option<f64>,
        /// Exhaustive-enumeration threshold (default 14).
        exact_up_to: Option<usize>,
        /// Use the cheap wireless portfolio (default false).
        fast: Option<bool>,
    },
    /// Measure all three notions over one shared candidate pool and report
    /// the paper's gaps.
    Profile {
        /// Size-cap fraction `α` (default 0.5).
        alpha: Option<f64>,
        /// Exhaustive-enumeration threshold (default 14).
        exact_up_to: Option<usize>,
        /// Use the cheap wireless portfolio (default false).
        fast: Option<bool>,
    },
    /// Sample a random vertex set `S`, extract the bipartite view
    /// `G_S = (S, Γ⁻(S))` and compare Spokesman-Election solvers on it.
    Spokesman {
        /// Size of the sampled set `S`.
        set_size: usize,
        /// Solvers to run (default: the full polynomial portfolio members).
        solvers: Option<Vec<SolverKind>>,
    },
    /// Simulate one radio broadcast per trial and aggregate round counts.
    Radio {
        /// The protocol (`"Decay"`, `"NaiveFlooding"`, `"RoundRobin"`,
        /// `"Spokesman"`).
        protocol: ProtocolKind,
        /// Broadcast source vertex (default 0).
        source_vertex: Option<usize>,
        /// Round cap (default 10·n + 100).
        max_rounds: Option<usize>,
    },
}

impl Task {
    /// A compact label for reports, e.g. `measure:wireless`.
    pub fn label(&self) -> String {
        match self {
            Task::Measure { notion, .. } => format!("measure:{}", notion.name()),
            Task::Profile { .. } => "profile".to_string(),
            Task::Spokesman { set_size, .. } => format!("spokesman:set-size={set_size}"),
            Task::Radio { protocol, .. } => format!("radio:{}", protocol.name()),
        }
    }
}

fn default_trials() -> usize {
    1
}

/// One declarative batch experiment. See the module docs for the JSON shape.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (report key; free-form).
    pub name: String,
    /// Optional prose description.
    #[serde(default)]
    pub description: String,
    /// Where each trial's graph comes from.
    pub source: GraphSource,
    /// What to do with each instance.
    pub task: Task,
    /// Number of independent trials (default 1).
    #[serde(default = "default_trials")]
    pub trials: usize,
    /// Base seed; every per-trial seed is derived from it.
    #[serde(default)]
    pub seed: u64,
}

impl ScenarioSpec {
    /// Parses a spec from JSON text. `context` labels errors (a file path
    /// or "inline spec").
    pub fn from_json(text: &str, context: &str) -> Result<ScenarioSpec> {
        let spec: ScenarioSpec =
            serde_json::from_str(text).map_err(|e| LabError::json(context, e))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Loads and parses a spec file.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<ScenarioSpec> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| LabError::Io(format!("reading {}: {e}", path.display())))?;
        ScenarioSpec::from_json(&text, &path.display().to_string())
    }

    /// Serializes the spec to pretty JSON.
    pub fn to_json(&self) -> String {
        wx_core::report::to_json_pretty(self)
    }

    /// Checks spec-level invariants the type system cannot (positive trial
    /// count, sane α, nonzero set sizes, exact solves small enough to run).
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(LabError::invalid("scenario name must be non-empty"));
        }
        if self.trials == 0 {
            return Err(LabError::invalid("trials must be at least 1"));
        }
        self.source
            .validate()
            .map_err(|e| LabError::invalid(format!("source: {e}")))?;
        match &self.task {
            Task::Measure { alpha, .. } | Task::Profile { alpha, .. } => {
                if let Some(a) = alpha {
                    if !(*a > 0.0 && *a <= 1.0) {
                        return Err(LabError::invalid(format!(
                            "alpha must be in (0, 1], got {a}"
                        )));
                    }
                }
            }
            Task::Spokesman { set_size, solvers } => {
                if *set_size == 0 {
                    return Err(LabError::invalid("spokesman set_size must be at least 1"));
                }
                let exact = solvers
                    .as_ref()
                    .is_some_and(|s| s.contains(&SolverKind::Exact));
                if exact && *set_size > ExactSolver::MAX_LEFT {
                    return Err(LabError::invalid(format!(
                        "the exact solver handles a set_size of at most {}, got {set_size}",
                        ExactSolver::MAX_LEFT
                    )));
                }
            }
            Task::Radio { max_rounds, .. } => {
                if let Some(0) = max_rounds {
                    return Err(LabError::invalid("radio max_rounds must be at least 1"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_json() -> &'static str {
        r#"{
            "name": "smoke",
            "source": {"RandomRegular": {"n": 32, "d": 4}},
            "task": {"Measure": {"notion": "Wireless"}},
            "trials": 3,
            "seed": 7
        }"#
    }

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let spec = ScenarioSpec::from_json(minimal_json(), "test").unwrap();
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.description, "");
        assert_eq!(spec.trials, 3);
        assert_eq!(spec.seed, 7);
        match spec.task {
            Task::Measure {
                notion,
                alpha,
                exact_up_to,
                fast,
            } => {
                assert_eq!(notion, NotionKind::Wireless);
                assert!(alpha.is_none() && exact_up_to.is_none() && fast.is_none());
            }
            other => panic!("wrong task {other:?}"),
        }
    }

    #[test]
    fn defaults_for_trials_and_seed() {
        let spec = ScenarioSpec::from_json(
            r#"{"name": "d", "source": {"Hypercube": {"dim": 3}},
                "task": {"Profile": {}}}"#,
            "test",
        )
        .unwrap();
        assert_eq!(spec.trials, 1);
        assert_eq!(spec.seed, 0);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ScenarioSpec::from_json(minimal_json(), "test").unwrap();
        let back = ScenarioSpec::from_json(&spec.to_json(), "round-trip").unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn task_labels() {
        let spec = ScenarioSpec::from_json(minimal_json(), "test").unwrap();
        assert_eq!(spec.task.label(), "measure:wireless");
        let radio = Task::Radio {
            protocol: ProtocolKind::Decay,
            source_vertex: None,
            max_rounds: None,
        };
        assert_eq!(radio.label(), "radio:decay");
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut spec = ScenarioSpec::from_json(minimal_json(), "test").unwrap();
        spec.trials = 0;
        assert!(spec.validate().is_err());

        let bad_alpha = r#"{"name": "a", "source": {"Hypercube": {"dim": 3}},
            "task": {"Measure": {"notion": "Ordinary", "alpha": 1.5}}}"#;
        assert!(ScenarioSpec::from_json(bad_alpha, "test").is_err());

        let zero_set = r#"{"name": "a", "source": {"Hypercube": {"dim": 3}},
            "task": {"Spokesman": {"set_size": 0}}}"#;
        assert!(ScenarioSpec::from_json(zero_set, "test").is_err());

        // the exact solver's limit: 25 left vertices pass, 26 do not
        let exact = |set_size: usize| {
            let json = format!(
                r#"{{"name": "a", "source": {{"Hypercube": {{"dim": 6}}}},
                "task": {{"Spokesman": {{"set_size": {set_size}, "solvers": ["Exact"]}}}}}}"#
            );
            ScenarioSpec::from_json(&json, "test")
        };
        assert!(exact(25).is_ok());
        assert!(exact(26).is_err());
    }

    #[test]
    fn unknown_fields_and_malformed_json_error_cleanly() {
        assert!(ScenarioSpec::from_json("not json", "test").is_err());
        let missing_task = r#"{"name": "a", "source": {"Hypercube": {"dim": 3}}}"#;
        let err = ScenarioSpec::from_json(missing_task, "test").unwrap_err();
        assert!(err.to_string().contains("task"), "{err}");
    }
}
