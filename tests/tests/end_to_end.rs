//! End-to-end pipeline tests: the facade analysis on every graph family,
//! serde round-trips of the report types, and reproducibility of the whole
//! stack under a fixed seed.

use wx_core::prelude::*;

#[test]
fn analysis_runs_on_every_family_and_observation_2_1_always_holds() {
    let graphs: Vec<(&str, Graph)> = vec![
        ("c-plus", complete_plus_graph(8).unwrap().0),
        ("random-regular", random_regular_graph(80, 4, 1).unwrap()),
        ("hypercube", hypercube_graph(5).unwrap()),
        ("margulis", margulis_graph(6).unwrap()),
        ("grid", grid_graph(7, 7).unwrap()),
        ("torus", torus_graph(5, 5).unwrap()),
        ("tree", complete_k_ary_tree(3, 4).unwrap()),
        ("random-tree", random_tree(60, 2).unwrap()),
        ("core-graph-8", CoreGraph::new(8).unwrap().graph.to_graph()),
        (
            "bad-unique",
            BadUniqueExpander::new(12, 6, 4).unwrap().graph.to_graph(),
        ),
        (
            "broadcast-chain",
            BroadcastChain::new(4, 2, 3).unwrap().graph,
        ),
    ];
    for (name, g) in graphs {
        let analysis = GraphAnalysis::run(&g, &AnalysisConfig::light());
        assert!(
            analysis.observation_2_1_holds,
            "{name}: Observation 2.1 violated: {}",
            analysis.summary()
        );
        assert!(
            analysis.profile.wireless.value >= 0.0 && analysis.profile.ordinary.value.is_finite(),
            "{name}: nonsensical profile {}",
            analysis.summary()
        );
    }
}

#[test]
fn analysis_is_reproducible_for_a_fixed_seed() {
    let g = random_regular_graph(60, 4, 5).unwrap();
    let cfg = AnalysisConfig::light();
    let a = GraphAnalysis::run(&g, &cfg);
    let b = GraphAnalysis::run(&g, &cfg);
    assert_eq!(a.profile.ordinary.value, b.profile.ordinary.value);
    assert_eq!(a.profile.unique.value, b.profile.unique.value);
    assert_eq!(a.profile.wireless.value, b.profile.wireless.value);
}

#[test]
fn analysis_json_roundtrips() {
    let (g, _) = complete_plus_graph(6).unwrap();
    let a = GraphAnalysis::run(&g, &AnalysisConfig::default());
    let json = a.to_json();
    let back: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(back["profile"]["num_vertices"], 7);
    assert!(back["observation_2_1_holds"].as_bool().unwrap());
}

#[test]
fn report_tables_render_for_experiment_style_rows() {
    use wx_core::report::{fmt_f64, render_table, TableRow};
    let graphs = [
        ("grid-5x5", grid_graph(5, 5).unwrap()),
        ("hypercube-4", hypercube_graph(4).unwrap()),
    ];
    let mut rows = Vec::new();
    for (name, g) in &graphs {
        let p = ExpansionProfile::measure(g, &ProfileConfig::light(0.5));
        rows.push(TableRow::new(
            *name,
            vec![fmt_f64(p.ordinary.value), fmt_f64(p.wireless.value)],
        ));
    }
    let table = render_table("demo", &["graph", "beta", "beta_w"], &rows);
    assert!(table.contains("grid-5x5"));
    assert!(table.contains("hypercube-4"));
    assert_eq!(table.lines().count(), 5);
}

#[test]
fn graph_serde_roundtrip_preserves_structure() {
    let g = margulis_graph(5).unwrap();
    let json = serde_json::to_string(&g).unwrap();
    let back: Graph = serde_json::from_str(&json).unwrap();
    assert_eq!(g, back);

    let core = CoreGraph::new(8).unwrap();
    let json = serde_json::to_string(&core).unwrap();
    let back: CoreGraph = serde_json::from_str(&json).unwrap();
    assert_eq!(core.graph, back.graph);
    assert_eq!(core.s, back.s);

    let vs = VertexSet::from_iter(10, [1, 4, 7]);
    let json = serde_json::to_string(&vs).unwrap();
    let back: VertexSet = serde_json::from_str(&json).unwrap();
    assert_eq!(vs, back);
    // malformed member is rejected
    assert!(serde_json::from_str::<VertexSet>(r#"{"universe":3,"members":[5]}"#).is_err());
}
