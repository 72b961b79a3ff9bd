//! The rayon pool's workers are long-lived, so tracing many parallel
//! stages registers a bounded set of wx-trace thread buffers: the calling
//! thread plus one per worker, however many stages run. (Its own test
//! binary: the trace registry is process-global.)

use rayon::prelude::*;
use std::collections::BTreeSet;
use wx_graph::ImplicitGraph;

#[test]
fn many_traced_stages_record_spans_on_a_bounded_set_of_threads() {
    let _session = wx_trace::exclusive();
    let _ = wx_trace::take_trace();
    wx_trace::enable();
    for stage in 0..200usize {
        let _outer = wx_trace::span("test.stage");
        let total: usize = (0..16usize)
            .into_par_iter()
            .map(|i| {
                let _item = wx_trace::span("test.item");
                i * stage
            })
            .sum();
        assert_eq!(total, 120 * stage);
    }
    // the engine's own fan-out: wireless evaluations record solver spans
    // on the workers
    let g = ImplicitGraph::hypercube(5).unwrap();
    let engine = wx_expansion::MeasurementEngine::builder()
        .strategy(wx_expansion::MeasureStrategy::Sampled)
        .build();
    for _ in 0..20 {
        engine.measure(&g, &wx_expansion::Wireless::fast()).unwrap();
    }
    wx_trace::disable();
    let trace = wx_trace::take_trace();
    let tids: BTreeSet<u32> = trace.spans.iter().map(|s| s.tid).collect();
    assert_eq!(trace.phase_count("test.item"), 200 * 16);
    assert!(
        tids.len() <= rayon::current_num_threads() + 1,
        "{} threads recorded spans, pool has {} workers",
        tids.len(),
        rayon::current_num_threads()
    );
}
