//! Universal invariants of both fleet event loops over their whole
//! configuration matrix — topology × router × fault plan × tenant count
//! × scaling mode — rather than pairwise. The colocated loop runs two
//! tiny groups (static, pinned or elastic) under no plan, a benign 1.0×
//! straggler window or chaos crashes; the disaggregated loop runs 2
//! prefill + 2 decode replicas (static or pinned) under no plan, a
//! benign 1.0×/1.0× link window or decode-pool chaos, with the router
//! axis picking both pools' routers. Every run, traced and untraced:
//!
//! - conserves requests, fleet-wide and per tenant:
//!   `offered == completed + shed + timed_out`;
//! - delivers each request id at most once, never before it arrived;
//! - reports identically with the flight recorder on and off;
//! - traces exactly one terminal event per offered request.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use cimtpu_cluster::{
    AutoscalePolicy, ChaosSpec, ClusterEngine, FaultEvent, FaultPlan, GroupPolicy,
    InterconnectSpec, Recorder, ReplicaSpec, RouterPolicy, SloClass, TenantSet, TenantSpec,
};
use cimtpu_core::TpuConfig;
use cimtpu_serving::{
    ArrivalPattern, BatchPolicy, LenDist, PrefixTraffic, ServingModel, TrafficSpec,
};
use cimtpu_units::Seconds;
use proptest::prelude::*;

const ROUTERS: [RouterPolicy; 4] = [
    RouterPolicy::RoundRobin,
    RouterPolicy::LeastOutstanding,
    RouterPolicy::SessionAffinity,
    RouterPolicy::SloAware,
];

fn plan(disagg: bool, kind: usize, seed: u64) -> FaultPlan {
    match kind {
        0 => FaultPlan::none(),
        1 if disagg => FaultPlan::none().with_event(FaultEvent::DegradedLink {
            from: Seconds::new(0.000_5),
            until: Seconds::new(0.003),
            bandwidth_factor: 1.0,
            energy_factor: 1.0,
        }),
        1 => FaultPlan::none().with_event(FaultEvent::Straggler {
            replica: 0,
            from: Seconds::new(0.000_5),
            until: Seconds::new(0.003),
            slowdown: 1.0,
        }),
        // Disaggregated crashes index the decode pool.
        _ => FaultPlan::seeded(seed).with_chaos(ChaosSpec {
            crashes: 2,
            window: (Seconds::new(0.000_2), Seconds::new(0.002)),
            repair: Seconds::new(0.001),
        }),
    }
}

/// Two tiny colocated groups — static, pinned at one slot each, or
/// elastic (0..2 slots, one initially) — or, disaggregated, 2 prefill +
/// 2 decode groups, static or pinned. Elastic runs take no fault plan.
fn engine(disagg: bool, router: RouterPolicy, faults: FaultPlan, scaling: usize) -> ClusterEngine {
    let spec = |name: &str| {
        ReplicaSpec::new(
            name,
            TpuConfig::tpuv4i(),
            ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer()),
        )
        .with_policy(BatchPolicy::Continuous { max_batch: 4 })
    };
    let fleet = if disagg {
        ClusterEngine::disaggregated(
            vec![spec("p0"), spec("p1")],
            vec![spec("d0"), spec("d1")],
            router,
            router,
            InterconnectSpec::ici(),
        )
    } else {
        ClusterEngine::colocated(vec![spec("a"), spec("b")], router)
    };
    let fleet = fleet.unwrap().with_slo_ms(1.0).with_faults(faults);
    let groups = if disagg { 4 } else { 2 };
    let group = |min, max| GroupPolicy {
        min,
        max,
        initial: 1,
        concurrency: 2,
        up_cooldown: Seconds::new(0.000_5),
        down_cooldown: Seconds::new(0.001),
        ..GroupPolicy::default()
    };
    let policy = |g: GroupPolicy| AutoscalePolicy {
        interval: Seconds::new(0.000_5),
        provision: Seconds::new(0.000_5),
        warmup: Seconds::new(0.000_2),
        ..AutoscalePolicy::new(vec![g; groups])
    };
    match scaling {
        0 => fleet,
        1 => fleet.with_autoscale(policy(group(1, 1))),
        _ => fleet.with_autoscale(policy(group(0, 2))),
    }
}

fn tenants(n: usize, seed: u64) -> TenantSet {
    let traffic = |requests| TrafficSpec {
        requests,
        arrival: ArrivalPattern::OpenLoop { rate_rps: 12_000.0 },
        prompt: LenDist::Uniform { lo: 16, hi: 48 },
        steps: LenDist::Uniform { lo: 2, hi: 10 },
        prefix: PrefixTraffic::None,
        seed,
    };
    let specs = if n == 1 {
        vec![TenantSpec::new("solo", SloClass::Standard, 1.0, traffic(36))]
    } else {
        vec![
            TenantSpec::new("chat", SloClass::Interactive, 4.0, traffic(12)),
            TenantSpec::new("api", SloClass::Standard, 2.0, traffic(12)),
            TenantSpec::new("bulk", SloClass::Batch, 1.0, traffic(12)),
        ]
    };
    TenantSet::new(specs).unwrap().with_seed(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fleet_loop_invariants_hold_across_the_matrix(
        disagg in any::<bool>(),
        router in 0usize..ROUTERS.len(),
        faults in 0usize..3,
        multi in any::<bool>(),
        scaling in 0usize..3,
        seed in 0u64..1_000,
    ) {
        // Elastic fleets take no fault plan; disaggregated ones are static
        // or pinned.
        let scaling = if disagg { scaling.min(1) } else { scaling };
        let faults = if scaling == 2 { 0 } else { faults };
        let engine = engine(disagg, ROUTERS[router], plan(disagg, faults, seed), scaling);
        let set = tenants(if multi { 3 } else { 1 }, seed);
        let plain = engine.run_tenants("matrix", &set).unwrap();
        let rec = Rc::new(RefCell::new(Recorder::new()));
        let run = engine.run_tenants_observed("matrix", &set, Some(&rec)).unwrap();
        prop_assert_eq!(&run, &plain, "the recorder changed the run");

        let report = &run.report;
        let (shed, timed_out) =
            report.availability.as_ref().map_or((0, 0), |a| (a.shed, a.timed_out));
        prop_assert_eq!(report.offered, report.completed + shed + timed_out);
        for u in &report.tenants.as_ref().expect("tenant runs report tenants").tenants {
            prop_assert_eq!(u.offered, u.completed + u.shed + u.timed_out, "tenant {}", &u.name);
        }
        prop_assert!(
            run.completions.windows(2).all(|w| w[0].id < w[1].id),
            "an id delivered twice"
        );
        prop_assert!(run.completions.iter().all(|c| c.finish >= c.arrival));

        let mut terminals: BTreeMap<u64, u64> = BTreeMap::new();
        for e in rec.borrow().events().iter().filter(|e| e.kind.is_terminal()) {
            *terminals.entry(e.id).or_default() += 1;
        }
        prop_assert_eq!(terminals.len() as u64, report.offered);
        prop_assert!(terminals.values().all(|&n| n == 1), "duplicate terminal: {:?}", terminals);
    }
}
