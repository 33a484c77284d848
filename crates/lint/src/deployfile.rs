//! Plain-text deployment descriptions for the `sl-lint` CLI.
//!
//! The library entry points take an [`EngineConfig`] and a [`FaultPlan`]
//! directly; the CLI needs file formats for both. Both formats are
//! deliberately tiny — `key = value` lines for the config, one verb per
//! line for the plan — with `#` comments and blank lines ignored.
//!
//! ```text
//! # deploy.conf
//! queue_capacity = 1024        # or `none`
//! policy = block               # block | shed_oldest | shed_newest | sample:0.5
//! parallelism = 4
//! shard_key = space            # space | sensor | round_robin
//! durable = on
//! retention_ms = 600000        # or `none`
//! compaction = on
//! ```
//!
//! ```text
//! # chaos.plan
//! crash node=1 at_ms=5000
//! restart node=1 at_ms=20000
//! flap link=0 at_ms=30000 outage_ms=2000
//! stall sensor=2 at_ms=10000 outage_ms=15000
//! burst sensor=1 at_ms=40000 window_ms=10000 factor=3
//! ```

use sl_engine::{EngineConfig, OverflowPolicy};
use sl_faults::FaultPlan;
use sl_stt::Duration;

/// A parsed deployment description: the engine configuration plus the
/// durability flag (which is a property of how the engine is *opened*, not
/// of the config struct).
#[derive(Debug, Clone, Default)]
pub struct DeploySpec {
    /// The engine configuration.
    pub config: EngineConfig,
    /// The engine persists checkpoints and the warehouse durably.
    pub durable: bool,
    /// The durable warehouse runs cold-tier compaction.
    pub compaction: bool,
}

/// Parse a `key = value` deployment-config file. Unknown keys are errors —
/// a typo'd knob silently keeping its default would defeat the point of
/// pre-flight analysis.
pub fn parse_deploy_config(text: &str) -> Result<DeploySpec, String> {
    let mut spec = DeploySpec::default();
    for (i, raw) in text.lines().enumerate() {
        let line = strip_comment(raw);
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .map(|(k, v)| (k.trim(), v.trim()))
            .ok_or_else(|| err(i, "expected `key = value`"))?;
        let cfg = &mut spec.config;
        match key {
            "queue_capacity" => {
                cfg.overload.queue_capacity = match value {
                    "none" => None,
                    n => Some(parse_num(i, key, n)?),
                }
            }
            "global_capacity" => {
                cfg.overload.global_capacity = match value {
                    "none" => None,
                    n => Some(parse_num(i, key, n)?),
                }
            }
            "policy" => {
                cfg.overload.policy = match value {
                    "block" => OverflowPolicy::Block,
                    "shed_oldest" => OverflowPolicy::ShedOldest,
                    "shed_newest" => OverflowPolicy::ShedNewest,
                    other => match other.strip_prefix("sample:") {
                        Some(p) => OverflowPolicy::Sample(
                            p.parse::<f64>()
                                .map_err(|_| err(i, &format!("bad sample probability `{p}`")))?,
                        ),
                        None => return Err(err(i, &format!("unknown policy `{other}`"))),
                    },
                }
            }
            "parallelism" => cfg.parallelism = parse_num(i, key, value)?,
            "shard_key" => {
                cfg.shard_key = match value {
                    "space" => sl_engine::ShardKey::Space,
                    "sensor" => sl_engine::ShardKey::Sensor,
                    "round_robin" => sl_engine::ShardKey::RoundRobin,
                    other => return Err(err(i, &format!("unknown shard_key `{other}`"))),
                }
            }
            "durable" => spec.durable = parse_bool(i, key, value)?,
            "compaction" => spec.compaction = parse_bool(i, key, value)?,
            "retention_ms" => {
                cfg.retention = match value {
                    "none" => None,
                    n => Some(Duration::from_millis(parse_num(i, key, n)?)),
                }
            }
            "retry_attempts" => cfg.retry_attempts = parse_num(i, key, value)?,
            "breaker" => cfg.overload.breaker_enabled = parse_bool(i, key, value)?,
            "breaker_threshold" => cfg.overload.breaker_threshold = parse_num(i, key, value)?,
            "breaker_cooldown_ms" => {
                cfg.overload.breaker_cooldown = Duration::from_millis(parse_num(i, key, value)?)
            }
            "dlq_capacity" => cfg.dlq_capacity = parse_num(i, key, value)?,
            other => return Err(err(i, &format!("unknown key `{other}`"))),
        }
    }
    Ok(spec)
}

/// Parse a one-verb-per-line fault-plan file.
pub fn parse_fault_plan(text: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::new();
    for (i, raw) in text.lines().enumerate() {
        let line = strip_comment(raw);
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let verb = words.next().unwrap_or_default();
        let mut fields = Fields::parse(i, words)?;
        plan = match verb {
            "crash" => {
                let node = fields.take_u32(i, "node")?;
                let at = fields.take_ms(i, "at_ms")?;
                plan.node_crash(node, at)
            }
            "restart" => {
                let node = fields.take_u32(i, "node")?;
                let at = fields.take_ms(i, "at_ms")?;
                plan.node_restart(node, at)
            }
            "flap" => {
                let link = fields.take_u32(i, "link")?;
                let (at, outage) = fields.take_window(i, "outage_ms")?;
                plan.link_flap(link, at, outage)
            }
            "stall" => {
                let sensor = fields.take(i, "sensor")?;
                let (at, outage) = fields.take_window(i, "outage_ms")?;
                plan.sensor_stall(sensor, at, outage)
            }
            "burst" => {
                let sensor = fields.take(i, "sensor")?;
                let (at, window) = fields.take_window(i, "window_ms")?;
                let factor = fields.take_u32(i, "factor")?;
                plan.burst(sensor, at, window, factor)
            }
            other => return Err(err(i, &format!("unknown fault verb `{other}`"))),
        };
        fields.finish(i)?;
    }
    Ok(plan)
}

/// `key=value` operands of one plan line.
struct Fields(Vec<(String, u64)>);

impl Fields {
    fn parse<'a>(line: usize, words: impl Iterator<Item = &'a str>) -> Result<Fields, String> {
        let mut fields = Vec::new();
        for w in words {
            let (k, v) = w
                .split_once('=')
                .ok_or_else(|| err(line, &format!("expected `key=value`, got `{w}`")))?;
            let n = v
                .parse::<u64>()
                .map_err(|_| err(line, &format!("bad number `{v}` for `{k}`")))?;
            fields.push((k.to_string(), n));
        }
        Ok(Fields(fields))
    }

    fn take(&mut self, line: usize, key: &str) -> Result<u64, String> {
        let pos = self
            .0
            .iter()
            .position(|(k, _)| k == key)
            .ok_or_else(|| err(line, &format!("missing `{key}=`")))?;
        Ok(self.0.remove(pos).1)
    }

    /// A field that must fit a `u32` (node and link ids, burst factors).
    fn take_u32(&mut self, line: usize, key: &str) -> Result<u32, String> {
        let n = self.take(line, key)?;
        u32::try_from(n).map_err(|_| err(line, &format!("bad number `{n}` for `{key}`")))
    }

    fn take_ms(&mut self, line: usize, key: &str) -> Result<Duration, String> {
        Ok(Duration::from_millis(self.take(line, key)?))
    }

    /// `at_ms` and the length `key` of the window opening there, which
    /// must end within the range of a time offset.
    fn take_window(&mut self, line: usize, key: &str) -> Result<(Duration, Duration), String> {
        let at = self.take(line, "at_ms")?;
        let len = self.take(line, key)?;
        if at.checked_add(len).is_none() {
            return Err(err(line, &format!("`at_ms` + `{key}` overflows")));
        }
        Ok((Duration::from_millis(at), Duration::from_millis(len)))
    }

    fn finish(self, line: usize) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some((k, _)) => Err(err(line, &format!("unexpected field `{k}`"))),
        }
    }
}

fn strip_comment(line: &str) -> &str {
    line.split('#').next().unwrap_or_default().trim()
}

fn err(line: usize, msg: &str) -> String {
    format!("line {}: {msg}", line + 1)
}

fn parse_num<T: std::str::FromStr>(line: usize, key: &str, value: &str) -> Result<T, String> {
    value
        .parse::<T>()
        .map_err(|_| err(line, &format!("bad number `{value}` for `{key}`")))
}

fn parse_bool(line: usize, key: &str, value: &str) -> Result<bool, String> {
    match value {
        "on" | "true" => Ok(true),
        "off" | "false" => Ok(false),
        other => Err(err(
            line,
            &format!("bad flag `{other}` for `{key}` (on/off)"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_faults::FaultAction;

    #[test]
    fn config_round_trip() {
        let spec = parse_deploy_config(
            "# ci deployment\n\
             queue_capacity = 1024\n\
             policy = shed_oldest\n\
             global_capacity = none\n\
             parallelism = 4   # four workers\n\
             shard_key = sensor\n\
             durable = on\n\
             retention_ms = 600000\n\
             compaction = on\n\
             breaker = on\n\
             breaker_threshold = 2\n\
             breaker_cooldown_ms = 750\n\
             retry_attempts = 4\n\
             dlq_capacity = 512\n",
        )
        .unwrap();
        assert_eq!(spec.config.overload.queue_capacity, Some(1024));
        assert_eq!(spec.config.overload.policy, OverflowPolicy::ShedOldest);
        assert_eq!(spec.config.overload.global_capacity, None);
        assert_eq!(spec.config.parallelism, 4);
        assert_eq!(spec.config.shard_key, sl_engine::ShardKey::Sensor);
        assert!(spec.durable);
        assert!(spec.compaction);
        assert_eq!(spec.config.retention, Some(Duration::from_millis(600_000)));
        assert_eq!(
            parse_deploy_config("retention_ms = none")
                .unwrap()
                .config
                .retention,
            None
        );
        assert!(spec.config.overload.breaker_enabled);
        assert_eq!(spec.config.overload.breaker_threshold, 2);
        assert_eq!(
            spec.config.overload.breaker_cooldown,
            Duration::from_millis(750)
        );
        assert_eq!(spec.config.retry_attempts, 4);
        assert_eq!(spec.config.dlq_capacity, 512);
    }

    #[test]
    fn config_rejects_unknown_and_malformed() {
        assert!(parse_deploy_config("qeue_capacity = 4").is_err());
        assert!(parse_deploy_config("parallelism four").is_err());
        assert!(parse_deploy_config("policy = drop_everything").is_err());
        assert!(parse_deploy_config("durable = yes").is_err());
        // Switches the engine no longer has are unknown keys, not no-ops.
        for retired in ["checkpoint = on", "retry = off"] {
            let e = parse_deploy_config(retired).unwrap_err();
            assert!(e.contains("unknown key"), "{retired}: {e}");
        }
        assert!(parse_deploy_config("policy = sample:0.25").is_ok());
    }

    #[test]
    fn plan_round_trip() {
        let plan = parse_fault_plan(
            "crash node=1 at_ms=5000\n\
             restart node=1 at_ms=20000\n\
             flap link=0 at_ms=30000 outage_ms=2000\n\
             stall sensor=2 at_ms=1000 outage_ms=500\n\
             burst sensor=1 at_ms=40000 window_ms=10000 factor=3\n",
        )
        .unwrap();
        let events = plan.events();
        // flap = down+up, stall = stall+resume, burst = start+stop
        assert_eq!(events.len(), 8);
        assert!(events
            .iter()
            .any(|e| e.action == FaultAction::NodeCrash { node: 1 }));
        assert!(events.iter().any(|e| matches!(
            e.action,
            FaultAction::BurstStart {
                sensor: 1,
                factor: 3
            }
        )));
    }

    #[test]
    fn plan_rejects_bad_lines() {
        assert!(parse_fault_plan("explode node=1 at_ms=0").is_err());
        assert!(parse_fault_plan("crash node=1").is_err());
        assert!(parse_fault_plan("crash node=1 at_ms=0 extra=2").is_err());
        assert!(parse_fault_plan("crash node=one at_ms=0").is_err());
        let end = format!("flap link=0 at_ms={} outage_ms=1", u64::MAX);
        assert!(parse_fault_plan(&end).is_err());
    }

    #[test]
    fn plan_rejects_ids_and_factors_past_u32() {
        for (line, key) in [
            ("crash node=4294967297 at_ms=1000", "node"),
            ("restart node=4294967296 at_ms=1000", "node"),
            ("flap link=4294967296 at_ms=0 outage_ms=1", "link"),
            (
                "burst sensor=1 at_ms=0 window_ms=1 factor=4294967296",
                "factor",
            ),
        ] {
            let e = parse_fault_plan(line).unwrap_err();
            assert!(e.starts_with("line 1: bad number `42949672"), "{line}: {e}");
            assert!(e.ends_with(&format!("for `{key}`")), "{line}: {e}");
        }
        // The largest value that fits is kept as written.
        let plan = parse_fault_plan("crash node=4294967295 at_ms=0").unwrap();
        assert_eq!(
            plan.events()[0].action,
            FaultAction::NodeCrash { node: u32::MAX }
        );
    }
}
