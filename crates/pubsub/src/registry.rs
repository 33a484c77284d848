//! The sensor directory: publication, discovery queries, and the
//! organisation criteria the GUI offers.
//!
//! "Sensors can be organized according to different criteria
//! (temporal/spatial, type/location) in order to facilitate the
//! specification of dataflows" (paper §2) — [`SensorRegistry::group_by`]
//! implements those groupings.

use crate::filter::SubscriptionFilter;
use crate::message::{SensorAdvertisement, SensorKind};
use crate::PubSubError;
use sl_netsim::NodeId;
use sl_stt::{SensorId, SpatialGranularity};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Criteria for organising the sensor directory in the discovery UI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupCriterion {
    /// By root theme segment (weather, social, traffic, ...).
    ThemeRoot,
    /// By sensor kind (physical / social).
    Kind,
    /// By hosting network node.
    Node,
    /// By spatial grid cell at the given granularity (sensors without a
    /// position group under the key `"unlocated"`).
    SpatialCell(SpatialGranularity),
    /// By order of magnitude of the generation period (sub-second, second,
    /// minute, hour+).
    PeriodBand,
}

/// The sensor directory. Advertisements are shared, not copied: whoever
/// plugged the sensor in (the engine's sensor table) holds the same
/// [`Arc`], and every join notification bumps it.
#[derive(Debug, Default)]
pub struct SensorRegistry {
    sensors: BTreeMap<u64, Arc<SensorAdvertisement>>,
}

impl SensorRegistry {
    /// Empty registry.
    pub fn new() -> SensorRegistry {
        SensorRegistry::default()
    }

    /// Publish a sensor. Fails if the id is already present.
    pub fn publish(&mut self, ad: impl Into<Arc<SensorAdvertisement>>) -> Result<(), PubSubError> {
        let ad = ad.into();
        let id = ad.id.0;
        if self.sensors.contains_key(&id) {
            return Err(PubSubError::DuplicateSensor(id));
        }
        self.sensors.insert(id, ad);
        Ok(())
    }

    /// Remove a sensor (it left the network), returning its advertisement.
    pub fn unpublish(&mut self, id: SensorId) -> Result<Arc<SensorAdvertisement>, PubSubError> {
        self.sensors
            .remove(&id.0)
            .ok_or(PubSubError::UnknownSensor(id.0))
    }

    /// The advertisement of a published sensor.
    pub fn get(&self, id: SensorId) -> Result<&SensorAdvertisement, PubSubError> {
        self.sensors
            .get(&id.0)
            .map(Arc::as_ref)
            .ok_or(PubSubError::UnknownSensor(id.0))
    }

    /// True if the sensor is currently published.
    pub fn contains(&self, id: SensorId) -> bool {
        self.sensors.contains_key(&id.0)
    }

    /// Number of published sensors.
    pub fn len(&self) -> usize {
        self.sensors.len()
    }

    /// True if no sensors are published.
    pub fn is_empty(&self) -> bool {
        self.sensors.is_empty()
    }

    /// All advertisements, in id order (deterministic).
    pub fn all(&self) -> impl Iterator<Item = &SensorAdvertisement> {
        self.sensors.values().map(Arc::as_ref)
    }

    /// Discovery: all sensors matching `filter`, in id order.
    pub fn discover<'a>(
        &'a self,
        filter: &'a SubscriptionFilter,
    ) -> impl Iterator<Item = &'a SensorAdvertisement> + 'a {
        self.all().filter(move |ad| filter.matches(ad))
    }

    /// Sensors hosted on a given network node.
    pub fn on_node(&self, node: NodeId) -> impl Iterator<Item = &SensorAdvertisement> {
        self.all().filter(move |ad| ad.node == node)
    }

    /// Organise the directory by `by`: returns group label → sensor ids,
    /// labels sorted.
    pub fn group_by(&self, by: GroupCriterion) -> BTreeMap<String, Vec<SensorId>> {
        let mut groups: BTreeMap<String, Vec<SensorId>> = BTreeMap::new();
        for ad in self.all() {
            let key = match by {
                GroupCriterion::ThemeRoot => ad
                    .theme
                    .segments()
                    .next()
                    .unwrap_or("unclassified")
                    .to_string(),
                GroupCriterion::Kind => ad.kind.to_string(),
                GroupCriterion::Node => ad.node.to_string(),
                GroupCriterion::SpatialCell(g) => match ad.location {
                    Some(p) => g.granule_of(&p).to_string(),
                    None => "unlocated".to_string(),
                },
                GroupCriterion::PeriodBand => {
                    let ms = ad.period.as_millis();
                    if ms < 1000 {
                        "sub-second".to_string()
                    } else if ms < 60_000 {
                        "seconds".to_string()
                    } else if ms < 3_600_000 {
                        "minutes".to_string()
                    } else {
                        "hours+".to_string()
                    }
                }
            };
            groups.entry(key).or_default().push(ad.id);
        }
        groups
    }

    /// Candidate replacements for a departed sensor: published sensors whose
    /// schema subsumes the departed schema, same theme subtree, nearest
    /// first (demo P3: react "when sensors ... are modified on the fly").
    pub fn replacements_for(&self, departed: &SensorAdvertisement) -> Vec<&SensorAdvertisement> {
        let mut candidates: Vec<&SensorAdvertisement> = self
            .all()
            .filter(|ad| ad.id != departed.id)
            .filter(|ad| ad.theme.is_a(&departed.theme) || departed.theme.is_a(&ad.theme))
            .filter(|ad| departed.schema.subsumed_by(&ad.schema))
            .collect();
        candidates.sort_by(|a, b| {
            let da = distance_or_max(departed, a);
            let db = distance_or_max(departed, b);
            da.total_cmp(&db).then_with(|| a.id.cmp(&b.id))
        });
        candidates
    }
}

fn distance_or_max(from: &SensorAdvertisement, to: &SensorAdvertisement) -> f64 {
    match (from.location, to.location) {
        (Some(a), Some(b)) => a.haversine_distance_m(&b),
        _ => f64::MAX,
    }
}

/// Convenience: count matching sensors per kind (used in the demo output).
pub fn census(registry: &SensorRegistry) -> (usize, usize) {
    let mut physical = 0;
    let mut social = 0;
    for ad in registry.all() {
        match ad.kind {
            SensorKind::Physical => physical += 1,
            SensorKind::Social => social += 1,
        }
    }
    (physical, social)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{AttrType, Duration, Field, GeoPoint, Schema, Theme};

    fn make_ad(
        id: u64,
        name: &str,
        theme: &str,
        kind: SensorKind,
        node: u32,
        lat: f64,
    ) -> SensorAdvertisement {
        SensorAdvertisement {
            id: SensorId(id),
            name: name.into(),
            kind,
            schema: Schema::new(vec![Field::new("v", AttrType::Float)])
                .unwrap()
                .into_ref(),
            theme: Theme::new(theme).unwrap(),
            period: Duration::from_secs(id.max(1)),
            location: Some(GeoPoint::new_unchecked(lat, 135.5)),
            node: NodeId(node),
        }
    }

    fn populated() -> SensorRegistry {
        let mut r = SensorRegistry::new();
        r.publish(make_ad(
            0,
            "osaka-temp-0",
            "weather/temperature",
            SensorKind::Physical,
            0,
            34.69,
        ))
        .unwrap();
        r.publish(make_ad(
            1,
            "osaka-rain-0",
            "weather/rain",
            SensorKind::Physical,
            0,
            34.70,
        ))
        .unwrap();
        r.publish(make_ad(
            2,
            "osaka-tweet-0",
            "social/tweet",
            SensorKind::Social,
            1,
            34.68,
        ))
        .unwrap();
        r.publish(make_ad(
            3,
            "kyoto-temp-0",
            "weather/temperature",
            SensorKind::Physical,
            2,
            35.01,
        ))
        .unwrap();
        r
    }

    #[test]
    fn publish_unpublish_cycle() {
        let mut r = populated();
        assert_eq!(r.len(), 4);
        assert!(r.contains(SensorId(2)));
        // Duplicate rejected.
        assert!(matches!(
            r.publish(make_ad(2, "dup", "weather", SensorKind::Physical, 0, 34.0)),
            Err(PubSubError::DuplicateSensor(2))
        ));
        let gone = r.unpublish(SensorId(2)).unwrap();
        assert_eq!(gone.name, "osaka-tweet-0");
        assert!(!r.contains(SensorId(2)));
        assert!(r.unpublish(SensorId(2)).is_err());
        assert!(r.get(SensorId(2)).is_err());
    }

    #[test]
    fn discovery_by_filter() {
        let r = populated();
        let weather = SubscriptionFilter::any().with_theme(Theme::new("weather").unwrap());
        let found: Vec<_> = r.discover(&weather).map(|a| a.id.0).collect();
        assert_eq!(found, vec![0, 1, 3]);
        let social = SubscriptionFilter::any().with_kind(SensorKind::Social);
        assert_eq!(r.discover(&social).count(), 1);
    }

    #[test]
    fn groupings() {
        let r = populated();
        let by_theme = r.group_by(GroupCriterion::ThemeRoot);
        assert_eq!(by_theme["weather"].len(), 3);
        assert_eq!(by_theme["social"].len(), 1);
        let by_kind = r.group_by(GroupCriterion::Kind);
        assert_eq!(by_kind["physical"].len(), 3);
        let by_node = r.group_by(GroupCriterion::Node);
        assert_eq!(by_node["node#0"].len(), 2);
        let by_cell = r.group_by(GroupCriterion::SpatialCell(SpatialGranularity::grid(2)));
        // Osaka sensors (lat ~34.7) share a 0.25°-cell; Kyoto (35.01) differs.
        assert_eq!(by_cell.len(), 2);
        let by_period = r.group_by(GroupCriterion::PeriodBand);
        assert!(by_period.contains_key("seconds"));
    }

    #[test]
    fn on_node_listing() {
        let r = populated();
        assert_eq!(r.on_node(NodeId(0)).count(), 2);
        assert_eq!(r.on_node(NodeId(9)).count(), 0);
    }

    #[test]
    fn replacement_candidates_nearest_first() {
        let r = populated();
        let departed = r.get(SensorId(0)).unwrap().clone();
        let reps = r.replacements_for(&departed);
        // Only the other temperature sensor qualifies by theme subtree.
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].id, SensorId(3));
    }

    #[test]
    fn census_counts() {
        let r = populated();
        assert_eq!(census(&r), (3, 1));
    }
}
