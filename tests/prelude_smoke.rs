//! Workspace-level smoke test of the umbrella crate: everything a first-time
//! user touches must be reachable through `xgft::prelude` alone — construct
//! a topology, build route tables for the classic and proposed schemes, and
//! agree on route validity.

use xgft::prelude::*;

#[test]
fn prelude_builds_topology_and_route_tables_that_agree() {
    // The 4-ary 2-tree XGFT(2; 4,4; 1,4) of the paper's Fig. 1(b).
    let spec = XgftSpec::new(vec![4, 4], vec![1, 4]).expect("valid spec");
    assert_eq!(spec.to_string(), "XGFT(2;4,4;1,4)");
    let xgft = Xgft::new(spec).expect("valid topology");
    assert_eq!(xgft.num_leaves(), 16);

    let smodk = CompiledRouteTable::compile_all_pairs(&xgft, &SModK::new());
    let dmodk = CompiledRouteTable::compile_all_pairs(&xgft, &DModK::new());
    let rnca_up = CompiledRouteTable::compile_all_pairs(&xgft, &RandomNcaUp::new(&xgft, 2009));

    for table in [&smodk, &dmodk, &rnca_up] {
        for s in 0..xgft.num_leaves() {
            for d in 0..xgft.num_leaves() {
                if s == d {
                    continue;
                }
                let route = table.route(s, d).expect("all-pairs table covers the pair");
                assert!(
                    xgft.validate_route(s, d, &route).is_ok(),
                    "invalid route for ({s},{d}): {route:?}"
                );
            }
        }
    }
}

#[test]
fn prelude_reaches_every_layer() {
    // topo + core are covered above; patterns, netsim and tracesim types
    // must also resolve straight from the prelude.
    let pattern = Pattern::single_phase("pair", {
        let mut m = ConnectivityMatrix::new(4);
        m.add_flow(0, 1, 1024);
        m
    });
    assert_eq!(pattern.combined().num_flows(), 1);

    let trace = trace_from_pattern(&generators::wrf_mesh_exchange(2, 2, 1024).unwrap(), 0);
    assert_eq!(trace.num_ranks(), 4);
    let _: Trace = trace;

    let config = NetworkConfig {
        switching: SwitchingMode::CutThrough,
        ..NetworkConfig::default()
    };
    assert!(config.ideal_transfer_ps(1024) > 0);

    // KAryNTree / Route / NodeLabel / the remaining algorithms resolve too.
    let tree = KAryNTree::new(2, 2);
    let _ = (
        Route::empty(),
        RandomRouting::new(1),
        RandomNcaDown::new(tree.xgft(), 1),
        ColoredRouting::new(tree.xgft(), &pattern.combined()),
    );
}
