//! Shard-safety pass (`SL060`–`SL063`): does the configured parallelism
//! actually help, and can it change observable behaviour?
//!
//! Models the engine's epoch-window batching (`shard.rs`): only shardable
//! non-blocking operators are replicated across workers; partitioning
//! follows the configured `ShardKey`. All checks need a [`DeployModel`]
//! with `parallelism > 1`.
//!
//! [`DeployModel`]: crate::model::DeployModel

use super::PassCx;
use crate::diag::{Diagnostic, LintCode};
use sl_engine::ShardKey;
use std::collections::BTreeSet;

pub(crate) fn run(cx: &PassCx<'_>, out: &mut Vec<Diagnostic>) {
    let Some(model) = cx.model else {
        return;
    };
    let workers = model.config.parallelism;
    if workers <= 1 {
        return;
    }
    let Some(graph) = cx.graph else {
        return;
    };

    // SL060: the pool exists but nothing can run on it. Blocking operators
    // and culls stay single-owner, so a dataflow made only of those pays
    // thread spawn/steal overhead for zero batched tuples.
    let any_shardable = graph.ops.values().any(|f| f.shardable);
    if !any_shardable && !graph.ops.is_empty() {
        out.push(Diagnostic::global(
            LintCode::FruitlessParallelism,
            format!(
                "parallelism is {workers} but no operator in the dataflow is shardable \
                 (stateless filter/transform/virtual-property): every tuple runs on the \
                 single-owner path and the shard pool only adds overhead — drop \
                 `parallelism` to 1 or restructure the per-tuple stages"
            ),
        ));
    }

    // SL061: an order-sensitive operator (cull decimation counter) fed by a
    // merge of independently timed streams. The engine merges batched
    // outputs in drained order, which is deterministic — but a join's
    // output interleaving is an artefact of tick timing, so the counter
    // keeps an arbitrary-looking subset that shifts under any retiming.
    for (name, facts) in &graph.ops {
        if facts.order_sensitive && facts.downstream_of_join {
            out.push(Diagnostic::new(
                LintCode::OrderSensitiveMerge,
                name,
                format!(
                    "service `{name}` decimates by arrival order but sits downstream of a \
                     join under parallelism {workers}: which tuples survive depends on \
                     merge interleaving — move the cull upstream of the join or key the \
                     decimation on tuple time",
                ),
            ));
        }
    }

    // SL062/SL063 reason about how the partitioner spreads real sensors.
    let Some(registry) = cx.registry else {
        return;
    };
    let bound: Vec<_> = cx
        .doc
        .sources
        .iter()
        .flat_map(|s| registry.discover(&s.filter))
        .collect();

    // SL062: the Space key hashes a tuple's spatial granule (a cell of
    // `sl_engine::WAREHOUSE_SGRAN`); tuples from unlocated sensors (no
    // advertised position, no enrichment yet) all hash the sensor id
    // instead, collapsing the intended geographic partition.
    if model.config.shard_key == ShardKey::Space && any_shardable {
        let unlocated = bound.iter().filter(|ad| ad.location.is_none()).count();
        if unlocated > 0 {
            out.push(Diagnostic::global(
                LintCode::SpaceShardWithoutLocation,
                format!(
                    "shard key is Space but {unlocated} bound sensor(s) advertise no \
                     position: their tuples fall back to sensor-id hashing, so the \
                     spatial partition degenerates — advertise positions, enrich with a \
                     location virtual property upstream, or use the Sensor key"
                ),
            ));
        }
    }

    // SL063: the Sensor key can spread work across at most one worker per
    // distinct sensor; fewer sensors than workers leaves workers idle.
    if model.config.shard_key == ShardKey::Sensor {
        let distinct: BTreeSet<u64> = bound.iter().map(|ad| ad.id.0).collect();
        if !distinct.is_empty() && distinct.len() < workers {
            out.push(Diagnostic::global(
                LintCode::ShardSkew,
                format!(
                    "shard key is Sensor but only {} distinct sensor(s) are bound for \
                     {workers} workers: at most {} worker(s) ever receive work — lower \
                     `parallelism` or partition by Space",
                    distinct.len(),
                    distinct.len()
                ),
            ));
        }
    }
}
