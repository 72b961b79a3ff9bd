//! Traced-run artifacts: a per-layer self-time table and a Chrome trace.
//!
//! In-process workloads record the benchmark's own spans through
//! `wx_trace::span` around each call into a crate's public functions, so
//! they nest with the spans the program already records and drain into
//! one [`Trace`]. The serve workload adds request spans of its own, built
//! from what the load generator observed ([`RequestSpan`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use wx_core::trace::Trace;

/// One served request as the load generator saw it, in microseconds since
/// the schedule's start.
pub struct RequestSpan {
    pub id: usize,
    pub template: &'static str,
    pub connection: usize,
    pub due_us: u64,
    pub sent_us: u64,
    pub done_us: u64,
    pub queue_us: u64,
    pub run_us: u64,
    pub status: u16,
}

/// `(count, total seconds, self seconds)` per span name.
type SelfTimes = BTreeMap<String, (u64, f64, f64)>;

/// Self time of every span: its duration minus the part its direct
/// children (same thread, one level deeper, inside its interval) cover.
fn self_times(trace: &Trace) -> SelfTimes {
    let mut table = SelfTimes::new();
    let mut by_tid: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, s) in trace.spans.iter().enumerate() {
        by_tid.entry(s.tid).or_default().push(i);
    }
    for idx in by_tid.values_mut() {
        idx.sort_by_key(|&i| (trace.spans[i].start_nanos, trace.spans[i].depth));
        let mut child_nanos = vec![0u64; idx.len()];
        // (position in idx, depth, end)
        let mut stack: Vec<(usize, u32, u64)> = Vec::new();
        for (pos, &i) in idx.iter().enumerate() {
            let s = &trace.spans[i];
            while let Some(&(_, depth, end)) = stack.last() {
                if depth >= s.depth || end <= s.start_nanos {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(parent, depth, _)) = stack.last() {
                if depth + 1 == s.depth {
                    child_nanos[parent] += s.dur_nanos;
                }
            }
            stack.push((pos, s.depth, s.start_nanos + s.dur_nanos));
        }
        for (pos, &i) in idx.iter().enumerate() {
            let s = &trace.spans[i];
            let entry = table.entry(s.name.to_string()).or_insert((0, 0.0, 0.0));
            entry.0 += 1;
            entry.1 += s.dur_nanos as f64 * 1e-9;
            entry.2 += s.dur_nanos.saturating_sub(child_nanos[pos]) as f64 * 1e-9;
        }
    }
    table
}

const TABLE_HEAD: &str = "span\tcount\ttotal_s\tself_s\n";

/// One row per drained phase, sorted by name: the overflow-immune count
/// and total, and the self time computed from the recorded spans.
fn push_phase_rows(table: &mut String, trace: &Trace) {
    let spans = self_times(trace);
    let mut phases = trace.phase_table();
    phases.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, count, total_s) in phases {
        let self_s = spans.get(&name).map_or(f64::NAN, |e| e.2);
        let _ = writeln!(table, "{name}\t{count}\t{total_s:.6}\t{self_s:.6}");
    }
}

fn write_file(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}

/// Writes `self_time.tsv` (span self times joined with the drained phase
/// table, whose totals survive ring overflow) and `trace.json` (Chrome
/// trace-event format) for an in-process workload, and returns the table
/// text.
pub fn write_in_process(dir: &Path, trace: &Trace) -> String {
    let mut table = String::from(TABLE_HEAD);
    push_phase_rows(&mut table, trace);
    if trace.dropped > 0 {
        let _ = writeln!(
            table,
            "# {} span records overflowed the trace ring; self_s undercounts for them",
            trace.dropped
        );
    }
    write_file(&dir.join("self_time.tsv"), &table);
    write_file(&dir.join("trace.json"), &trace.to_chrome_json());
    table
}

/// The serve workload's artifacts: `trace.json` has one Chrome track per
/// connection, where each request span (from its due time to its response)
/// holds the generator wait, then the server-reported queue and run times,
/// and the rest is transport; `check_trace.json` holds the in-process
/// spans (`in_process`: the traced re-run pass and the layer pass), which
/// also join the self-time table.
pub fn write_serve(dir: &Path, requests: &[RequestSpan], in_process: &Trace) -> String {
    let mut events: Vec<String> = Vec::new();
    let mut totals: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
    let mut add = |name: &'static str, total_us: u64, self_us: u64| {
        let e = totals.entry(name).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += total_us as f64 * 1e-6;
        e.2 += self_us as f64 * 1e-6;
    };
    for r in requests {
        let total = r.done_us.saturating_sub(r.due_us);
        let wait = r.sent_us.saturating_sub(r.due_us);
        let server = r.queue_us + r.run_us;
        let transport = total.saturating_sub(wait + server);
        add("loadgen.request", total, transport);
        add("loadgen.wait", wait, wait);
        add("serve.queue", r.queue_us, r.queue_us);
        add("serve.run", r.run_us, r.run_us);
        let mut push = |name: &str, ts: u64, dur: u64| {
            events.push(format!(
                "{{\"ph\":\"X\",\"name\":\"{name}\",\"cat\":\"perfbench\",\"pid\":1,\"tid\":{},\"ts\":{ts},\"dur\":{},\"args\":{{\"request\":{},\"template\":\"{}\",\"status\":{}}}}}",
                r.connection,
                dur.max(1),
                r.id,
                r.template,
                r.status
            ));
        };
        push("loadgen.request", r.due_us, total);
        push("loadgen.wait", r.due_us, wait);
        // The server reports durations, not timestamps: place them after
        // the send, splitting the remaining transport time evenly around.
        let start = r.sent_us + transport / 2;
        push("serve.queue", start, r.queue_us);
        push("serve.run", start + r.queue_us, r.run_us);
    }
    let mut table = String::from(TABLE_HEAD);
    for (name, (count, total_s, self_s)) in &totals {
        let _ = writeln!(table, "{name}\t{count}\t{total_s:.6}\t{self_s:.6}");
    }
    push_phase_rows(&mut table, in_process);
    write_file(&dir.join("self_time.tsv"), &table);
    let json = format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}",
        events.join(",\n")
    );
    write_file(&dir.join("trace.json"), &json);
    write_file(&dir.join("check_trace.json"), &in_process.to_chrome_json());
    table
}
