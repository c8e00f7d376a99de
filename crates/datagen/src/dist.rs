//! Hand-rolled categorical samplers: Uniform, Zipfian, and Gaussian.
//!
//! The paper's Fig. 4d sweeps Pop-Syn attribute values over these three
//! distributions. The offline dependency set does not include
//! `rand_distr`, so Zipf is implemented by inverse-CDF table lookup and
//! Gaussian by the Box–Muller transform; both are unit-tested against
//! their analytic shapes.

use rand::Rng;

/// A categorical distribution family over a finite index domain
/// `0..domain`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Every index equally likely.
    Uniform,
    /// Zipfian: P(i) ∝ 1/(i+1)^s.
    Zipf {
        /// The exponent; a higher `s` skews harder toward low indices.
        s: f64,
    },
    /// Discretized Gaussian: indices are sampled from
    /// N(mean_frac·domain, (cv·domain)²), rounded, and clamped into
    /// range.
    Gaussian {
        /// The mean as a fraction of the domain size.
        mean_frac: f64,
        /// The standard deviation as a fraction of the domain size.
        cv: f64,
    },
}

impl Dist {
    /// The paper's three Fig. 4d settings with conventional parameters:
    /// Zipf s = 1.07 (web-like skew), centered Gaussian with σ = 15% of
    /// the domain.
    pub fn zipf_default() -> Dist {
        Dist::Zipf { s: 1.07 }
    }

    /// Centered Gaussian, σ = 0.15·domain.
    pub fn gaussian_default() -> Dist {
        Dist::Gaussian { mean_frac: 0.5, cv: 0.15 }
    }

    /// Parses the names used by the experiment harness
    /// (`uniform` / `zipf` / `gaussian`), case-insensitive.
    pub fn parse(name: &str) -> Option<Dist> {
        match name.to_ascii_lowercase().as_str() {
            "uniform" => Some(Dist::Uniform),
            "zipf" | "zipfian" => Some(Dist::zipf_default()),
            "gaussian" | "normal" => Some(Dist::gaussian_default()),
            _ => None,
        }
    }

    /// Display name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Dist::Uniform => "Uniform",
            Dist::Zipf { .. } => "Zipfian",
            Dist::Gaussian { .. } => "Gaussian",
        }
    }
}

/// A sampler for a [`Dist`] over a fixed domain size, with any
/// precomputation done once at construction.
#[derive(Debug, Clone)]
pub struct Sampler {
    domain: usize,
    kind: SamplerKind,
}

#[derive(Debug, Clone)]
enum SamplerKind {
    Uniform,
    /// Cumulative distribution table; `cdf[i]` = P(index ≤ i).
    Table {
        cdf: Vec<f64>,
    },
    Gaussian {
        mean: f64,
        sd: f64,
    },
}

impl Sampler {
    /// Builds a sampler for `dist` over `0..domain`.
    ///
    /// # Panics
    ///
    /// Panics if `domain == 0`.
    pub fn new(dist: Dist, domain: usize) -> Self {
        assert!(domain > 0, "sampler domain must be non-empty");
        let kind = match dist {
            Dist::Uniform => SamplerKind::Uniform,
            Dist::Zipf { s } => {
                let mut cdf = Vec::with_capacity(domain);
                let mut total = 0.0;
                for i in 0..domain {
                    total += 1.0 / ((i + 1) as f64).powf(s);
                    cdf.push(total);
                }
                for v in &mut cdf {
                    *v /= total;
                }
                SamplerKind::Table { cdf }
            }
            Dist::Gaussian { mean_frac, cv } => SamplerKind::Gaussian {
                mean: mean_frac * domain as f64,
                sd: (cv * domain as f64).max(f64::MIN_POSITIVE),
            },
        };
        Self { domain, kind }
    }

    /// The domain size.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Draws one index in `0..domain`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match &self.kind {
            SamplerKind::Uniform => rng.gen_range(0..self.domain),
            SamplerKind::Table { cdf } => {
                let u: f64 = rng.gen();
                // partition_point returns the first index whose cdf ≥ u.
                cdf.partition_point(|&c| c < u).min(self.domain - 1)
            }
            SamplerKind::Gaussian { mean, sd } => {
                // Box–Muller transform.
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let x = mean + sd * z;
                (x.round().max(0.0) as usize).min(self.domain - 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn histogram(dist: Dist, domain: usize, n: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(42);
        let s = Sampler::new(dist, domain);
        let mut h = vec![0usize; domain];
        for _ in 0..n {
            h[s.sample(&mut rng)] += 1;
        }
        h
    }

    #[test]
    fn uniform_is_flat() {
        let h = histogram(Dist::Uniform, 10, 100_000);
        for &c in &h {
            // Each bin expects 10k; allow 10% slack.
            assert!((9_000..=11_000).contains(&c), "bin count {c}");
        }
    }

    #[test]
    fn zipf_is_skewed_and_monotone() {
        let h = histogram(Dist::zipf_default(), 20, 100_000);
        // First value dominates; counts broadly decrease.
        assert!(h[0] > h[4] && h[4] > h[15]);
        assert!(h[0] as f64 > 0.2 * 100_000.0, "head too light: {}", h[0]);
    }

    #[test]
    fn zipf_s_zero_is_uniform() {
        let h = histogram(Dist::Zipf { s: 0.0 }, 10, 100_000);
        for &c in &h {
            assert!((9_000..=11_000).contains(&c));
        }
    }

    #[test]
    fn gaussian_peaks_at_mean() {
        let h = histogram(Dist::gaussian_default(), 21, 100_000);
        let peak = h.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        assert!((8..=12).contains(&peak), "peak at {peak}");
        // Tails are light relative to the center.
        assert!(h[10] > 4 * h[0].max(1));
    }

    #[test]
    fn gaussian_mean_and_sd_match() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = Sampler::new(Dist::Gaussian { mean_frac: 0.5, cv: 0.1 }, 1000);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| s.sample(&mut rng) as f64).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 500.0).abs() < 5.0, "mean {mean}");
        assert!((var.sqrt() - 100.0).abs() < 5.0, "sd {}", var.sqrt());
    }

    #[test]
    fn samples_stay_in_domain() {
        let mut rng = StdRng::seed_from_u64(3);
        for dist in [Dist::Uniform, Dist::zipf_default(), Dist::gaussian_default()] {
            for domain in [1usize, 2, 7] {
                let s = Sampler::new(dist, domain);
                for _ in 0..1000 {
                    assert!(s.sample(&mut rng) < domain);
                }
            }
        }
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        let s = Sampler::new(Dist::zipf_default(), 50);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..20).map(|_| s.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    #[test]
    fn parse_names() {
        assert_eq!(Dist::parse("uniform"), Some(Dist::Uniform));
        assert_eq!(Dist::parse("Zipf"), Some(Dist::zipf_default()));
        assert_eq!(Dist::parse("GAUSSIAN"), Some(Dist::gaussian_default()));
        assert_eq!(Dist::parse("pareto"), None);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_domain_panics() {
        Sampler::new(Dist::Uniform, 0);
    }
}
