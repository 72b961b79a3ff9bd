//! The scenario lab's determinism contract: two runs of the same
//! `ScenarioSpec` produce **byte-identical** JSON reports, for every task
//! kind, regardless of rayon scheduling — and the bundled smoke scenario the
//! CI step runs stays valid.

use wx_lab::runner::Runner;
use wx_lab::spec::ScenarioSpec;

fn assert_byte_identical(json_spec: &str) {
    let spec = ScenarioSpec::from_json(json_spec, "determinism test").unwrap();
    let a = Runner::new().run(&spec).unwrap().to_json();
    let b = Runner::new().run(&spec).unwrap().to_json();
    assert_eq!(a, b, "parallel reruns differ for {}", spec.name);
    // sequential execution must also produce the very same bytes
    let c = Runner::new().sequential().run(&spec).unwrap().to_json();
    assert_eq!(a, c, "sequential run differs for {}", spec.name);
    assert!(!a.is_empty());
}

#[test]
fn measure_task_is_byte_deterministic() {
    assert_byte_identical(
        r#"{
            "name": "det-measure",
            "source": {"RandomRegular": {"n": 24, "d": 3}},
            "task": {"Measure": {"notion": "Wireless", "fast": true}},
            "trials": 4,
            "seed": 42
        }"#,
    );
}

#[test]
fn profile_task_is_byte_deterministic() {
    assert_byte_identical(
        r#"{
            "name": "det-profile",
            "source": {"CompletePlus": {"k": 6}},
            "task": {"Profile": {}},
            "trials": 2,
            "seed": 7
        }"#,
    );
}

#[test]
fn spokesman_task_is_byte_deterministic() {
    assert_byte_identical(
        r#"{
            "name": "det-spokesman",
            "source": {"RandomRegular": {"n": 32, "d": 4}},
            "task": {"Spokesman": {"set_size": 8}},
            "trials": 4,
            "seed": 9
        }"#,
    );
}

#[test]
fn radio_task_is_byte_deterministic() {
    assert_byte_identical(
        r#"{
            "name": "det-radio",
            "source": {"RandomTree": {"n": 40}},
            "task": {"Radio": {"protocol": "Decay"}},
            "trials": 6,
            "seed": 11
        }"#,
    );
}

#[test]
fn different_seeds_give_different_reports() {
    let base = r#"{
        "name": "seeded",
        "source": {"RandomRegular": {"n": 24, "d": 3}},
        "task": {"Spokesman": {"set_size": 6}},
        "trials": 3,
        "seed": SEED
    }"#;
    let a = Runner::new()
        .run(&ScenarioSpec::from_json(&base.replace("SEED", "1"), "a").unwrap())
        .unwrap()
        .to_json();
    let b = Runner::new()
        .run(&ScenarioSpec::from_json(&base.replace("SEED", "2"), "b").unwrap())
        .unwrap()
        .to_json();
    assert_ne!(a, b);
}

#[test]
fn bundled_smoke_scenario_runs_and_validates() {
    // the same file the CI smoke step feeds to `wx run`
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/smoke.json");
    let spec = ScenarioSpec::from_file(path).expect("bundled scenario parses");
    let report = Runner::new().run(&spec).expect("bundled scenario runs");
    // the report parses back as a JSON object (what `wx validate` checks)
    let value: serde_json::Value = serde_json::from_str(&report.to_json()).unwrap();
    assert!(value.as_map().is_some());
    assert!(report.metrics.contains_key("value"));
}

/// Runs the spec `wx <command> --source S … --seed K` assembles for `task`
/// and compares its report with the committed file under `tests/golden/`.
fn assert_matches_golden(
    command: &str,
    source: &str,
    task: &str,
    trials: usize,
    seed: u64,
    file: &str,
) {
    let spec = ScenarioSpec::from_json(
        &format!(
            r#"{{
                "name": "adhoc-{command}",
                "description": "ad-hoc `wx {command}` invocation",
                "source": {source},
                "task": {task},
                "trials": {trials},
                "seed": {seed}
            }}"#
        ),
        "golden test",
    )
    .unwrap();
    let path = format!("{}/../../tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        Runner::new().run(&spec).unwrap().to_json(),
        golden,
        "{file}"
    );
}

/// The committed `wx spokesman` reports under `tests/golden/` pin the
/// solvers' picks: any change to a solver that alters a single pick, a
/// coverage or a work counter changes these bytes. The CI workflow checks
/// the same files through the `wx` binary.
#[test]
fn spokesman_reports_match_the_golden_files() {
    for (source, set_size, seed, file) in [
        (
            r#"{"RandomRegular": {"n": 5000, "d": 8}}"#,
            2500,
            7,
            "spokesman_rr5000_d8_s2500_seed7.json",
        ),
        (
            r#"{"Margulis": {"m": 60}}"#,
            1000,
            11,
            "spokesman_margulis60_s1000_seed11.json",
        ),
    ] {
        let task = format!(r#"{{"Spokesman": {{"set_size": {set_size}}}}}"#);
        assert_matches_golden("spokesman", source, &task, 1, seed, file);
    }
}

/// The committed `wx radio` decay reports pin the radio trials: every
/// completion round, trajectory statistic and work counter. The Margulis
/// graph is shared, so its 100 trials run as one full and one partial
/// 64-lane batch whose tails take frontier-proportional rounds; the random
/// regular source draws a graph per trial, so each of its trials runs as a
/// 1-lane batch (and records no batch-occupancy counters). The CI workflow
/// checks the same files through `wx`.
#[test]
fn radio_reports_match_the_golden_files() {
    for (source, trials, file) in [
        (
            r#"{"Margulis": {"m": 100}}"#,
            100,
            "radio_decay_margulis100_t100_seed7.json",
        ),
        (
            r#"{"RandomRegular": {"n": 2000, "d": 8}}"#,
            16,
            "radio_decay_rr2000_d8_t16_seed7.json",
        ),
    ] {
        let task = r#"{"Radio": {"protocol": "Decay"}}"#;
        assert_matches_golden("radio", source, task, trials, 7, file);
    }
}
