//! Deterministic signal generators underlying the synthetic sensors.

use rand::Rng;
use sl_stt::Timestamp;

/// A diurnal (24 h period) sinusoid with gaussian noise: the canonical
/// temperature/humidity signal shape.
#[derive(Debug, Clone)]
pub struct DiurnalWave {
    /// Mean value.
    pub base: f64,
    /// Peak deviation from the mean.
    pub amplitude: f64,
    /// Hour of day (0-24) at which the peak occurs.
    pub peak_hour: f64,
    /// Standard deviation of the additive noise.
    pub noise_std: f64,
}

impl DiurnalWave {
    /// Value at `t` with noise drawn from `rng`.
    pub fn value(&self, t: Timestamp, rng: &mut impl Rng) -> f64 {
        let (h, m, _) = t.time_of_day();
        let hour = f64::from(h) + f64::from(m) / 60.0;
        let phase = (hour - self.peak_hour) / 24.0 * std::f64::consts::TAU;
        self.base + self.amplitude * phase.cos() + gaussian(rng) * self.noise_std
    }
}

/// A two-state (dry/raining) Markov process with exponential-ish intensity
/// while raining — bursty rain fronts.
#[derive(Debug, Clone)]
pub struct RainProcess {
    raining: bool,
    /// Probability of a dry→rain transition per step.
    pub p_start: f64,
    /// Probability of a rain→dry transition per step.
    pub p_stop: f64,
    /// Mean rain intensity in mm/h while raining.
    pub mean_intensity: f64,
}

impl RainProcess {
    /// A process starting dry.
    pub fn new(p_start: f64, p_stop: f64, mean_intensity: f64) -> RainProcess {
        RainProcess {
            raining: false,
            p_start,
            p_stop,
            mean_intensity,
        }
    }

    /// Advance one step and return the current intensity (mm/h, 0 when dry).
    pub fn step(&mut self, rng: &mut impl Rng) -> f64 {
        if self.raining {
            if rng.gen::<f64>() < self.p_stop {
                self.raining = false;
            }
        } else if rng.gen::<f64>() < self.p_start {
            self.raining = true;
        }
        if self.raining {
            // Exponential with the configured mean, clipped for realism.
            let u: f64 = rng.gen_range(1e-9..1.0);
            (-u.ln() * self.mean_intensity).min(self.mean_intensity * 8.0)
        } else {
            0.0
        }
    }
}

/// A mean-reverting random walk in `[lo, hi]` — congestion levels, water
/// levels.
#[derive(Debug, Clone)]
pub struct BoundedWalk {
    value: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Step standard deviation.
    pub step_std: f64,
    /// Pull strength toward the midpoint per step (0 = pure walk).
    pub reversion: f64,
}

impl BoundedWalk {
    /// A walk starting at `start`.
    pub fn new(start: f64, lo: f64, hi: f64, step_std: f64, reversion: f64) -> BoundedWalk {
        BoundedWalk {
            value: start.clamp(lo, hi),
            lo,
            hi,
            step_std,
            reversion,
        }
    }

    /// Advance one step and return the new value.
    pub fn step(&mut self, rng: &mut impl Rng) -> f64 {
        let mid = (self.lo + self.hi) / 2.0;
        self.value += self.reversion * (mid - self.value) + gaussian(rng) * self.step_std;
        self.value = self.value.clamp(self.lo, self.hi);
        self.value
    }

    /// Current value without stepping.
    pub fn value(&self) -> f64 {
        self.value
    }
}

/// Standard normal via Box–Muller (avoids a rand_distr dependency).
pub fn gaussian(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn diurnal_peaks_at_peak_hour() {
        let w = DiurnalWave {
            base: 20.0,
            amplitude: 8.0,
            peak_hour: 14.0,
            noise_std: 0.0,
        };
        let mut r = rng(1);
        let mut at = |h| w.value(Timestamp::from_civil(2016, 7, 1, h, 0, 0), &mut r);
        let peak = at(14);
        let trough = at(2);
        assert!(peak > 27.0, "peak {peak}");
        assert!(trough < 13.0, "trough {trough}");
        assert!((at(14) - 28.0).abs() < 1e-9);
    }

    #[test]
    fn diurnal_noise_is_deterministic_per_seed() {
        let w = DiurnalWave {
            base: 20.0,
            amplitude: 5.0,
            peak_hour: 14.0,
            noise_std: 1.0,
        };
        let t = Timestamp::from_civil(2016, 7, 1, 9, 0, 0);
        let a = w.value(t, &mut rng(7));
        let b = w.value(t, &mut rng(7));
        assert_eq!(a, b);
        let c = w.value(t, &mut rng(8));
        assert_ne!(a, c);
    }

    #[test]
    fn rain_process_bursts() {
        let mut p = RainProcess::new(0.05, 0.2, 10.0);
        let mut r = rng(42);
        let mut wet_steps = 0;
        let mut total = 0.0;
        for _ in 0..10_000 {
            let v = p.step(&mut r);
            assert!(v >= 0.0);
            if v > 0.0 {
                wet_steps += 1;
                total += v;
            }
        }
        // Stationary wet fraction = p_start / (p_start + p_stop) = 0.2.
        let frac = wet_steps as f64 / 10_000.0;
        assert!((0.1..0.3).contains(&frac), "wet fraction {frac}");
        let mean = total / wet_steps as f64;
        assert!((5.0..15.0).contains(&mean), "mean intensity {mean}");
    }

    #[test]
    fn bounded_walk_stays_in_bounds() {
        let mut w = BoundedWalk::new(0.5, 0.0, 1.0, 0.2, 0.05);
        let mut r = rng(3);
        for _ in 0..5_000 {
            let v = w.step(&mut r);
            assert!((0.0..=1.0).contains(&v));
        }
        assert_eq!(w.value(), w.value());
    }

    #[test]
    fn gaussian_moments() {
        let mut r = rng(11);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let g = gaussian(&mut r);
            sum += g;
            sumsq += g * g;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
