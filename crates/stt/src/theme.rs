//! The thematic dimension: hierarchical theme paths and the theme taxonomy.
//!
//! Sensor data "are characterized both from the temporal, spatial and
//! thematic dimensions" (paper §1) — data about traffic jams vs data about
//! pollution carry different *themes*. Themes form a hierarchy
//! (`weather/temperature`, `social/tweet`, ...) so that a subscription to
//! `weather` matches every weather sub-theme, and the warehouse can roll up
//! by theme.

use crate::error::SttError;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A hierarchical theme path, e.g. `weather/temperature`.
///
/// Segments are non-empty, lowercase-insensitive-compared, `/`-separated.
/// Cheap to clone (the path is reference counted).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Theme {
    path: Arc<str>,
}

impl Theme {
    /// Parse a theme path, validating that no segment is empty.
    pub fn new(path: &str) -> Result<Theme, SttError> {
        // Already canonical (what every stored or derived path is): no
        // segment to trim or lowercase, so the path is shared as it stands.
        let canonical = path
            .split('/')
            .all(|seg| !seg.is_empty() && seg == seg.trim())
            && !path.bytes().any(|b| b.is_ascii_uppercase());
        if canonical {
            return Ok(Theme { path: path.into() });
        }
        let trimmed = path.trim().trim_matches('/');
        if trimmed.is_empty() || trimmed.split('/').any(|seg| seg.trim().is_empty()) {
            return Err(SttError::InvalidTheme(path.to_string()));
        }
        let normalized: String = trimmed
            .split('/')
            .map(|s| s.trim().to_ascii_lowercase())
            .collect::<Vec<_>>()
            .join("/");
        Ok(Theme {
            path: normalized.into(),
        })
    }

    /// The root theme used for streams with no thematic classification.
    pub fn unclassified() -> Theme {
        Theme {
            path: "unclassified".into(),
        }
    }

    /// The full path string.
    pub fn as_str(&self) -> &str {
        &self.path
    }

    /// The path segments, root first.
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        self.path.split('/')
    }

    /// Number of segments (depth in the hierarchy).
    pub fn depth(&self) -> usize {
        self.segments().count()
    }

    /// True if `self` is `ancestor` itself or a descendant of it.
    ///
    /// `weather/temperature` is-a `weather`; this is the matching rule used
    /// by subscriptions and discovery queries.
    pub fn is_a(&self, ancestor: &Theme) -> bool {
        let a = ancestor.as_str();
        self.path.as_ref() == a
            || (self.path.len() > a.len()
                && self.path.starts_with(a)
                && self.path.as_bytes()[a.len()] == b'/')
    }

    /// The parent theme, or `None` at the root.
    pub fn parent(&self) -> Option<Theme> {
        self.path.rfind('/').map(|i| Theme {
            path: self.path[..i].into(),
        })
    }

    /// The ancestor `depth` segments deep (1 = the root segment), or the
    /// theme itself when it is no deeper than that or `depth` is 0. A
    /// prefix of a valid path cut at a `/` is a valid path.
    pub fn ancestor(&self, depth: usize) -> Theme {
        let prefix = self.prefix(depth);
        if prefix.len() == self.path.len() {
            self.clone()
        } else {
            Theme {
                path: prefix.into(),
            }
        }
    }

    /// The path of [`Theme::ancestor`]`(depth)`, borrowed from this one.
    pub fn prefix(&self, depth: usize) -> &str {
        let cut = depth
            .checked_sub(1)
            .and_then(|n| self.path.match_indices('/').nth(n));
        match cut {
            Some((i, _)) => &self.path[..i],
            None => &self.path,
        }
    }

    /// Extend the path with a child segment.
    pub fn child(&self, segment: &str) -> Result<Theme, SttError> {
        Theme::new(&format!("{}/{}", self.path, segment))
    }
}

impl fmt::Display for Theme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.path)
    }
}

impl std::str::FromStr for Theme {
    type Err = SttError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Theme::new(s)
    }
}

/// A registry of known themes with descriptions — the vocabulary offered to
/// users when organising sensors "according to different criteria
/// (temporal/spatial, type/location)" (requirement §2).
///
/// The taxonomy is prefix-closed: registering `weather/rain/torrential`
/// implicitly registers `weather` and `weather/rain`.
#[derive(Debug, Default, Clone)]
pub struct ThemeTaxonomy {
    entries: BTreeMap<Theme, String>,
}

impl ThemeTaxonomy {
    /// Empty taxonomy.
    pub fn new() -> ThemeTaxonomy {
        ThemeTaxonomy::default()
    }

    /// The default taxonomy for the paper's scenario: physical weather
    /// phenomena, social streams and traffic.
    pub fn standard() -> ThemeTaxonomy {
        let mut t = ThemeTaxonomy::new();
        for (path, desc) in [
            ("weather/temperature", "air temperature measurements"),
            ("weather/humidity", "relative humidity measurements"),
            ("weather/rain", "precipitation measurements"),
            ("weather/rain/torrential", "torrential rain events"),
            ("weather/wind", "wind speed and direction"),
            ("weather/pressure", "atmospheric pressure"),
            ("weather/apparent_temperature", "perceived temperature"),
            ("water/level", "sea and river water level"),
            ("social/tweet", "geo-tagged microblog messages"),
            ("traffic/congestion", "road congestion levels"),
            ("traffic/accident", "accident reports"),
            ("transit/train", "train schedule status"),
            ("transit/flight", "flight schedule status"),
        ] {
            // Canonical literals, shared as they stand (as `unclassified`).
            t.register(Theme { path: path.into() }, desc);
        }
        t
    }

    /// Register a theme (and, implicitly, all its ancestors).
    pub fn register(&mut self, theme: Theme, description: &str) {
        let mut ancestor = theme.parent();
        while let Some(a) = ancestor {
            self.entries.entry(a.clone()).or_default();
            ancestor = a.parent();
        }
        self.entries.insert(theme, description.to_string());
    }

    /// True if the theme (or an ancestor prefix of it) is registered.
    pub fn contains(&self, theme: &Theme) -> bool {
        self.entries.contains_key(theme)
    }

    /// The description of a registered theme.
    pub fn description(&self, theme: &Theme) -> Option<&str> {
        self.entries.get(theme).map(String::as_str)
    }

    /// All registered themes under (and including) `root`, sorted.
    pub fn subtree<'a>(&'a self, root: &'a Theme) -> impl Iterator<Item = &'a Theme> + 'a {
        self.entries.keys().filter(move |t| t.is_a(root))
    }

    /// All registered themes, sorted.
    pub fn all(&self) -> impl Iterator<Item = &Theme> {
        self.entries.keys()
    }

    /// Number of registered themes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no theme is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalises() {
        let t = Theme::new("  /Weather/Temperature/ ").unwrap();
        assert_eq!(t.as_str(), "weather/temperature");
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn rejects_empty_and_blank_segments() {
        assert!(Theme::new("").is_err());
        assert!(Theme::new("/").is_err());
        assert!(Theme::new("a//b").is_err());
        assert!(Theme::new("a/ /b").is_err());
    }

    #[test]
    fn is_a_matching() {
        let weather = Theme::new("weather").unwrap();
        let temp = Theme::new("weather/temperature").unwrap();
        let weatherman = Theme::new("weatherman").unwrap();
        assert!(temp.is_a(&weather));
        assert!(temp.is_a(&temp));
        assert!(!weather.is_a(&temp));
        // Prefix must respect segment boundaries.
        assert!(!weatherman.is_a(&weather));
    }

    #[test]
    fn parent_and_child() {
        let t = Theme::new("weather/rain/torrential").unwrap();
        assert_eq!(t.parent().unwrap().as_str(), "weather/rain");
        assert_eq!(t.parent().unwrap().parent().unwrap().as_str(), "weather");
        assert!(t.parent().unwrap().parent().unwrap().parent().is_none());
        let c = Theme::new("weather").unwrap().child("wind").unwrap();
        assert_eq!(c.as_str(), "weather/wind");
        assert_eq!(t.ancestor(1).as_str(), "weather");
        assert_eq!(t.ancestor(2).as_str(), "weather/rain");
        for same in [0, 3, 4] {
            assert_eq!(t.ancestor(same), t);
        }
    }

    #[test]
    fn taxonomy_prefix_closed() {
        let mut tax = ThemeTaxonomy::new();
        tax.register(Theme::new("a/b/c").unwrap(), "leaf");
        assert!(tax.contains(&Theme::new("a").unwrap()));
        assert!(tax.contains(&Theme::new("a/b").unwrap()));
        assert!(tax.contains(&Theme::new("a/b/c").unwrap()));
        assert!(!tax.contains(&Theme::new("a/b/c/d").unwrap()));
        assert_eq!(tax.len(), 3);
    }

    #[test]
    fn standard_taxonomy_has_scenario_themes() {
        let tax = ThemeTaxonomy::standard();
        for path in [
            "weather/temperature",
            "weather/rain/torrential",
            "social/tweet",
            "traffic/congestion",
        ] {
            assert!(tax.contains(&Theme::new(path).unwrap()), "{path}");
        }
        // Every built-in path is already what `Theme::new` would make of it.
        for theme in tax.entries.keys() {
            assert_eq!(Theme::new(theme.as_str()).unwrap(), *theme);
        }
        let weather = Theme::new("weather").unwrap();
        let under_weather: Vec<_> = tax.subtree(&weather).collect();
        assert!(under_weather.len() >= 7);
        assert!(under_weather.iter().all(|t| t.is_a(&weather)));
    }

    #[test]
    fn descriptions() {
        let tax = ThemeTaxonomy::standard();
        assert_eq!(
            tax.description(&Theme::new("social/tweet").unwrap()),
            Some("geo-tagged microblog messages")
        );
        // Implicit ancestors have empty descriptions.
        assert_eq!(tax.description(&Theme::new("social").unwrap()), Some(""));
    }

    #[test]
    fn from_str_impl() {
        let t: Theme = "Weather/Wind".parse().unwrap();
        assert_eq!(t.as_str(), "weather/wind");
    }
}
