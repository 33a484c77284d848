//! The liveness watchdog's bound never changes an answer: over random
//! sensors and periods, heartbeat schedules (forward, backwards, missing,
//! for sensors not or no longer published), publish / unpublish and ticks
//! under varying grace, `Broker::sweep_stale` expires exactly what a full
//! sweep over the broker's public state — every published sensor with a
//! heartbeat older than `grace` periods — says is stale, at every tick.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::TestRng;
use sl_netsim::NodeId;
use sl_pubsub::{Broker, BrokerEvent, SensorAdvertisement, SensorKind, SubscriptionFilter};
use sl_stt::{AttrType, Duration, Field, Schema, SensorId, Theme, Timestamp};

fn ad(id: u64, period_ms: u64) -> SensorAdvertisement {
    SensorAdvertisement {
        id: SensorId(id),
        name: format!("s{id}"),
        kind: SensorKind::Physical,
        schema: Schema::new(vec![Field::new("v", AttrType::Float)])
            .unwrap()
            .into_ref(),
        theme: Theme::new("weather").unwrap(),
        period: Duration::from_millis(period_ms),
        location: None,
        node: NodeId(0),
    }
}

/// The full sweep: published sensors, in id order, whose last heartbeat is
/// more than `grace` advertised periods before `now`.
fn reference_stale(b: &Broker, now: Timestamp, grace: u32) -> Vec<SensorId> {
    b.registry()
        .all()
        .filter(|ad| {
            let budget = ad.period.saturating_mul(u64::from(grace));
            let seen = b.last_seen(ad.id);
            seen.is_some_and(|seen| !budget.is_zero() && now.since(seen) > budget)
        })
        .map(|ad| ad.id)
        .collect()
}

#[test]
fn sweep_stale_expires_exactly_what_the_full_sweep_does() {
    let mut rng = TestRng::deterministic("sweep_stale_expires_exactly");
    let (mut expirations, mut quiet_ticks) = (0, 0);
    for _ in 0..300 {
        let mut b = Broker::new();
        let sub = b.subscribe(SubscriptionFilter::any());
        let sensors = 1 + rng.below(8);
        let mut now = Timestamp::from_secs(1_000);
        for _ in 0..400 {
            let id = rng.below(sensors);
            match rng.below(10) {
                0 => {
                    // Period 0 never expires; otherwise 1 ms to 5 s.
                    let period = [0, 1, 250, 1_000, 5_000][rng.below(5) as usize];
                    let _ = b.publish(ad(id, period));
                }
                1 => {
                    let _ = b.unpublish(SensorId(id));
                }
                2..=5 => {
                    // Mostly forward; sometimes backwards, or far behind.
                    let back = [0, 0, 0, 40, 3_000][rng.below(5) as usize];
                    let at = now.saturating_sub(Duration::from_millis(back));
                    b.heartbeat(SensorId(id), at);
                }
                _ => {
                    now += Duration::from_millis(rng.below(2_500));
                    let grace = [3, 3, 3, 1, 0][rng.below(5) as usize];
                    let want = reference_stale(&b, now, grace);
                    let got = b.sweep_stale(now, grace);
                    let ids: Vec<SensorId> = got.iter().map(|(ad, _)| ad.id).collect();
                    assert_eq!(ids, want, "at {now} with grace {grace}");
                    for (ad, events) in &got {
                        assert!(!b.registry().contains(ad.id));
                        assert_eq!(b.last_seen(ad.id), None);
                        assert!(matches!(
                            events[..],
                            [BrokerEvent::SensorLeft { subscription, sensor }]
                                if subscription == sub && sensor == ad.id
                        ));
                    }
                    expirations += ids.len();
                    quiet_ticks += usize::from(ids.is_empty());
                }
            }
        }
    }
    assert!(
        expirations > 500 && quiet_ticks > 500,
        "{expirations} / {quiet_ticks}"
    );
}
