//! Report bytes are identical across rayon thread counts and with
//! tracing on or off — exercised through real `wx` subprocesses,
//! because the rayon shim caches `RAYON_NUM_THREADS` per process.
//! (Moved here from `crates/lab/tests/` with the `wx` binary itself.)

#[test]
fn reports_are_byte_identical_across_thread_counts_and_tracing() {
    let wx = env!("CARGO_BIN_EXE_wx");
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/smoke.json");
    let dir = std::env::temp_dir().join("wx-serve-telemetry-threads");
    std::fs::create_dir_all(&dir).unwrap();

    let mut reports: Vec<(String, String)> = Vec::new();
    for threads in ["1", "4", "8"] {
        for traced in [false, true] {
            let label = format!("threads={threads} traced={traced}");
            let out = dir.join(format!("report-{threads}-{traced}.json"));
            let mut cmd = std::process::Command::new(wx);
            cmd.arg("run")
                .arg(scenario)
                .arg("--out")
                .arg(&out)
                .env("RAYON_NUM_THREADS", threads);
            let trace_path = dir.join(format!("trace-{threads}.json"));
            if traced {
                cmd.arg("--trace").arg(&trace_path);
            }
            let output = cmd.output().expect("spawning wx");
            assert!(
                output.status.success(),
                "[{label}] wx run failed: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            if traced {
                assert!(
                    std::fs::read_to_string(&trace_path)
                        .unwrap()
                        .contains("\"ph\":\"X\""),
                    "[{label}] trace has no spans"
                );
            }
            reports.push((label, std::fs::read_to_string(&out).unwrap()));
        }
    }
    let (first_label, first) = &reports[0];
    assert!(first.contains("\"telemetry\""), "{first}");
    for (label, report) in &reports[1..] {
        assert_eq!(
            first, report,
            "report bytes differ between {first_label} and {label}"
        );
    }
}

/// `wx sweep --all --quick` writes the same bytes at every thread count:
/// the committed golden report, whatever order the pool's workers claim
/// the candidate sets and trials in.
#[test]
fn quick_sweep_is_byte_identical_across_thread_counts() {
    let wx = env!("CARGO_BIN_EXE_wx");
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/sweep_all_quick_seed7.json"
    );
    let golden = std::fs::read_to_string(golden).unwrap();
    let dir = std::env::temp_dir().join("wx-serve-sweep-threads");
    std::fs::create_dir_all(&dir).unwrap();
    for threads in ["1", "4", "8"] {
        let out = dir.join(format!("sweep-{threads}.json"));
        let output = std::process::Command::new(wx)
            .args(["sweep", "--all", "--quick", "--seed", "7", "--out"])
            .arg(&out)
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("spawning wx");
        assert!(
            output.status.success(),
            "[threads={threads}] wx sweep failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(
            std::fs::read_to_string(&out).unwrap() == golden,
            "[threads={threads}] sweep report differs from the golden file"
        );
    }
}
