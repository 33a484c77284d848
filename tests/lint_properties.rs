//! Property: the static analyzer is sound w.r.t. deployment. For random
//! operator chains over the Osaka fleet, a lint report with no errors means
//! the dataflow validates, deploys, and runs without runtime schema or
//! delivery failures — and conversely a dataflow the validator rejects is
//! never reported error-free.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::prelude::*;
use streamloader::dataflow::{Dataflow, DataflowBuilder};
use streamloader::dsn::SinkKind;
use streamloader::engine::EngineConfig;
use streamloader::ops::AggFunc;
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::ScenarioConfig;
use streamloader::stt::{AttrType, Duration, Field, Schema, SchemaRef, Theme};
use streamloader::StreamLoader;

fn temp_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("temperature", AttrType::Float),
        Field::new("station", AttrType::Str),
    ])
    .unwrap()
    .into_ref()
}

/// One step of a random pipeline. Some steps are deliberately broken
/// (unknown attributes, constant predicates, misaligned windows) so the
/// property exercises both clean and dirty reports.
#[derive(Debug, Clone)]
enum Step {
    FilterHot,
    FilterGhostAttr,
    FilterConstant,
    Scale,
    RiskProperty,
    HourlyAvg { period_s: u64 },
    CullHalf,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::FilterHot),
        Just(Step::FilterGhostAttr),
        Just(Step::FilterConstant),
        Just(Step::Scale),
        Just(Step::RiskProperty),
        (60u64..600).prop_map(|period_s| Step::HourlyAvg { period_s }),
        Just(Step::CullHalf),
    ]
}

fn build(steps: &[Step]) -> Dataflow {
    let mut b = DataflowBuilder::new("prop").source(
        "temp",
        SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
        temp_schema(),
    );
    let mut prev = "temp".to_string();
    for (i, step) in steps.iter().enumerate() {
        let name = format!("n{i}");
        b = match step {
            Step::FilterHot => b.filter(&name, &prev, "temperature > 25"),
            Step::FilterGhostAttr => b.filter(&name, &prev, "humidity > 10"),
            Step::FilterConstant => b.filter(&name, &prev, "1 > 2"),
            Step::Scale => b.transform(&name, &prev, &[("temperature", "temperature * 2")]),
            Step::RiskProperty => b.virtual_property(&name, &prev, "risk", "temperature * 0.1"),
            Step::HourlyAvg { period_s } => b.aggregate(
                &name,
                &prev,
                Duration::from_secs(*period_s),
                &["station"],
                AggFunc::Avg,
                Some("temperature"),
            ),
            Step::CullHalf => b.cull_time(
                &name,
                &prev,
                streamloader::stt::TimeInterval::new(
                    streamloader::stt::Timestamp::from_secs(0),
                    streamloader::stt::Timestamp::from_secs(4_000_000_000),
                ),
                2,
            ),
        };
        prev = name;
    }
    b.sink("out", SinkKind::Console, &[&prev]).build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Soundness of the deployment tier's resource bounds: a deployment
    /// whose SL050 (activation deadlock) and SL080 (unbounded growth)
    /// passes report clean must run a burst fault plan to completion with
    /// no stall, an empty DLQ, and every measured peak ingress depth at or
    /// under the statically predicted bound.
    #[test]
    fn lint_clean_deployments_bound_peak_depths(
        steps in proptest::collection::vec(arb_step(), 0..4),
        factor in 2u32..5,
    ) {
        let df = build(&steps);
        let mut session = StreamLoader::osaka_demo(
            &ScenarioConfig::default(),
            EngineConfig::default(),
        )
        .expect("default config is valid");

        // Burst every temperature sensor for two minutes.
        let sensors: Vec<u64> = session
            .discover(&SubscriptionFilter::any().with_theme(
                Theme::new("weather/temperature").unwrap(),
            ))
            .iter()
            .map(|ad| ad.id.0)
            .collect();
        prop_assert!(!sensors.is_empty(), "the Osaka fleet has temperature sensors");
        let mut plan = streamloader::faults::FaultPlan::new();
        for s in &sensors {
            plan = plan.burst(*s, Duration::from_secs(60), Duration::from_secs(120), factor);
        }

        let report = session.lint_deployment(&df, Some(&plan));
        if report.error_count() > 0
            || report.has(streamloader::lint::LintCode::ActivationDeadlock)
            || report.has(streamloader::lint::LintCode::UnboundedQueueGrowth)
        {
            // Not the property's premise: dirty deployments may do anything.
            return;
        }

        // Bounds must be computed against the pre-deployment model.
        let bounds = session.predicted_peak_depths(&df, Some(&plan));
        session.deploy(df).expect("lint-clean dataflow must deploy");
        session.install_fault_plan(&plan);

        // Run past the burst window, sampling in-flight depths every
        // virtual second. Sampling can only *under*-measure a peak, which
        // is safe for the ≤-bound assertion.
        let mut peaks: std::collections::BTreeMap<String, u64> = Default::default();
        for _ in 0..240 {
            session.run_for(Duration::from_secs(1));
            for ((_dep, op), depth) in session.engine().ingress_depths() {
                let peak = peaks.entry(op.clone()).or_insert(0);
                *peak = (*peak).max(depth);
            }
        }

        prop_assert!(
            session.dlq().is_empty(),
            "lint-clean deployment shed tuples under the burst"
        );
        // The admission chokepoint tracks depths even with bounded queues
        // off — an empty sample would make the bound check vacuous. Only a
        // bare source→sink pipe (no services) legitimately has no queues.
        prop_assert!(
            !peaks.is_empty() || steps.is_empty(),
            "no ingress depths were ever observed: the sampling is broken"
        );
        for (op, peak) in &peaks {
            if let Some(bound) = bounds.get(op) {
                prop_assert!(
                    (*peak as f64) <= *bound,
                    "operator `{op}` peaked at {peak} in-flight tuples, above the \
                     predicted bound {bound:.1} (factor {factor})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lint_clean_pipelines_deploy_and_run(steps in proptest::collection::vec(arb_step(), 0..5)) {
        let df = build(&steps);
        let mut session = StreamLoader::osaka_demo(
            &ScenarioConfig::default(),
            EngineConfig::default(),
        )
        .expect("default config is valid");
        let report = session.lint(&df);

        if report.error_count() == 0 {
            // Error-free lint ⇒ the hard validator agrees and the dataflow
            // deploys and runs without schema/delivery failures.
            session.check(&df).expect("lint-clean dataflow must validate");
            session.deploy(df).expect("lint-clean dataflow must deploy");
            session.run_for(Duration::from_mins(10));
            prop_assert!(
                session.dlq().is_empty(),
                "lint-clean dataflow produced dead letters"
            );
        } else {
            // Error-level findings ⇒ the validator rejects it too (errors
            // are reserved for documents that cannot soundly deploy).
            prop_assert!(
                session.check(&df).is_err(),
                "lint reported errors but the dataflow validates:\n{}",
                report.render()
            );
        }
    }
}
