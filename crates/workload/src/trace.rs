//! Trace layer: per-category request intensities over epochs.
//!
//! The paper's simulations are "trace-driven": "the number of requests for
//! each category is obtained from real-world YouTube Data" (§V-A, the
//! Kaggle *Trending YouTube Video Statistics* dataset). That dataset cannot
//! be redistributed here, so this module provides two sources with the same
//! interface:
//!
//! * [`SyntheticYoutubeTrace`] — a generator reproducing the statistical
//!   features the paper extracts from the trace: `K` categories with
//!   Zipf-distributed base popularity, heavy-tailed (log-normal) per-epoch
//!   view volumes, day-scale periodicity and slow trend drift. Any request
//!   process with these marginals exercises exactly the same code paths
//!   (the trace only ever enters through the counts `|I_k(t)|`).
//! * [`parse_kaggle_csv`] — a loader for the genuine Kaggle schema
//!   (`video_id, trending_date, …, category_id, …, views, …`), so the real
//!   dataset can be dropped in unchanged.

use std::collections::BTreeMap;

use rand::{Rng, RngExt as _};

use mfgcp_sde::StandardNormal;

use crate::zipf::Zipf;
use crate::WorkloadError;

/// A per-category intensity matrix: `epochs × categories` non-negative
/// weights proportional to the expected request volume.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    categories: usize,
    /// Row-major `[epoch][category]` weights.
    weights: Vec<f64>,
}

impl Trace {
    /// Build a trace from row-major weights.
    ///
    /// # Errors
    ///
    /// Returns an error if `categories == 0` or the weight vector is not a
    /// whole number of epochs.
    pub fn new(categories: usize, weights: Vec<f64>) -> Result<Self, WorkloadError> {
        if categories == 0 || weights.is_empty() {
            return Err(WorkloadError::EmptyCatalog);
        }
        if weights.len() % categories != 0 {
            return Err(WorkloadError::Parse {
                line: 0,
                message: format!(
                    "weight vector length {} is not a multiple of {categories}",
                    weights.len()
                ),
            });
        }
        Ok(Self {
            categories,
            weights,
        })
    }

    /// Number of categories `K`.
    pub fn num_categories(&self) -> usize {
        self.categories
    }

    /// Number of epochs.
    pub fn num_epochs(&self) -> usize {
        self.weights.len() / self.categories
    }

    /// Raw weights for one epoch (clamped to the last epoch when `epoch`
    /// runs past the trace, so simulations may outlive the trace).
    pub fn weights(&self, epoch: usize) -> &[f64] {
        let e = epoch.min(self.num_epochs() - 1);
        &self.weights[e * self.categories..(e + 1) * self.categories]
    }

    /// Weights for one epoch normalized into a probability vector
    /// (uniform when the epoch is all zeros).
    pub fn normalized_weights(&self, epoch: usize) -> Vec<f64> {
        let w = self.weights(epoch);
        let total: f64 = w.iter().sum();
        if total > 0.0 {
            w.iter().map(|x| x / total).collect()
        } else {
            vec![1.0 / self.categories as f64; self.categories]
        }
    }
}

/// Generator configuration for the synthetic YouTube-like trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticYoutubeTrace {
    /// Number of categories `K` (paper: 20).
    pub categories: usize,
    /// Number of epochs to generate.
    pub epochs: usize,
    /// Zipf steepness of the base category popularity.
    pub zipf_iota: f64,
    /// Epochs per diurnal cycle (day-scale periodicity of trending data).
    pub period: usize,
    /// Amplitude of the diurnal modulation in `[0, 1)`.
    pub seasonal_amplitude: f64,
    /// Standard deviation of the per-epoch log-normal volume noise.
    pub volume_sigma: f64,
    /// Per-epoch standard deviation of the slow log-popularity drift
    /// ("cocktail" trends: categories rise and fall over the trace).
    pub drift_sigma: f64,
}

impl Default for SyntheticYoutubeTrace {
    fn default() -> Self {
        Self {
            categories: 20,
            epochs: 200,
            // ι ≈ 0.9 reproduces the skew of trending-video categories:
            // a few categories (music, entertainment) dominate.
            zipf_iota: 0.9,
            period: 24,
            seasonal_amplitude: 0.3,
            volume_sigma: 0.35,
            drift_sigma: 0.05,
        }
    }
}

impl SyntheticYoutubeTrace {
    /// Generate the trace.
    ///
    /// # Errors
    ///
    /// Returns an error if `categories == 0`, `epochs == 0` or the Zipf
    /// parameter is invalid.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Trace, WorkloadError> {
        if self.epochs == 0 {
            return Err(WorkloadError::EmptyCatalog);
        }
        let zipf = Zipf::new(self.categories, self.zipf_iota)?;
        // Slowly drifting log-popularity per category.
        let mut log_pop: Vec<f64> = zipf.probabilities().iter().map(|p| p.ln()).collect();
        let mut weights = Vec::with_capacity(self.categories * self.epochs);
        // Random phase per category so diurnal peaks are not synchronized.
        let phases: Vec<f64> = (0..self.categories)
            .map(|_| rng.random_range(0.0..core::f64::consts::TAU))
            .collect();
        for e in 0..self.epochs {
            let t = e as f64 / self.period.max(1) as f64 * core::f64::consts::TAU;
            for k in 0..self.categories {
                // Trend drift (random walk in log space).
                log_pop[k] += self.drift_sigma * StandardNormal.sample(rng);
                let seasonal = 1.0 + self.seasonal_amplitude * (t + phases[k]).sin();
                let volume = (self.volume_sigma * StandardNormal.sample(rng)).exp();
                weights.push(log_pop[k].exp() * seasonal.max(0.05) * volume);
            }
        }
        Trace::new(self.categories, weights)
    }
}

/// Minimal CSV field splitter handling RFC-4180 quoting (titles and tags in
/// the Kaggle dump contain commas and escaped quotes).
fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => fields.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

/// Parse a Kaggle *Trending YouTube Video Statistics* CSV into a [`Trace`].
///
/// Epochs are the distinct `trending_date` values in order of first
/// appearance; the weight of a category in an epoch is the sum of `views`
/// of its rows on that date. Category ids are remapped densely in order of
/// first appearance; `num_categories` pads/limits the output (the paper
/// uses `K = 20` categories).
///
/// # Errors
///
/// Returns a parse error when required columns are missing or numeric
/// fields are malformed.
pub fn parse_kaggle_csv(text: &str, num_categories: usize) -> Result<Trace, WorkloadError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(WorkloadError::Parse {
        line: 1,
        message: "empty file".into(),
    })?;
    let cols = split_csv_line(header);
    let find = |name: &str| -> Result<usize, WorkloadError> {
        cols.iter()
            .position(|c| c.trim() == name)
            .ok_or_else(|| WorkloadError::Parse {
                line: 1,
                message: format!("missing column `{name}`"),
            })
    };
    let date_col = find("trending_date")?;
    let cat_col = find("category_id")?;
    let views_col = find("views")?;

    let mut date_index: BTreeMap<String, usize> = BTreeMap::new();
    let mut date_order: Vec<String> = Vec::new();
    let mut cat_index: BTreeMap<String, usize> = BTreeMap::new();
    // (epoch, category) -> views
    let mut cells: BTreeMap<(usize, usize), f64> = BTreeMap::new();

    for (line_no, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_csv_line(line);
        let needed = date_col.max(cat_col).max(views_col);
        if fields.len() <= needed {
            return Err(WorkloadError::Parse {
                line: line_no + 1,
                message: format!(
                    "expected at least {} fields, got {}",
                    needed + 1,
                    fields.len()
                ),
            });
        }
        let date = fields[date_col].trim().to_owned();
        let epoch = *date_index.entry(date.clone()).or_insert_with(|| {
            date_order.push(date);
            date_order.len() - 1
        });
        let cat_key = fields[cat_col].trim().to_owned();
        let next_cat = cat_index.len();
        let cat = *cat_index.entry(cat_key).or_insert(next_cat);
        if cat >= num_categories {
            continue; // beyond the K categories the experiment keeps
        }
        let views: f64 = fields[views_col]
            .trim()
            .parse()
            .map_err(|e| WorkloadError::Parse {
                line: line_no + 1,
                message: format!("bad views value: {e}"),
            })?;
        *cells.entry((epoch, cat)).or_insert(0.0) += views;
    }

    if date_order.is_empty() {
        return Err(WorkloadError::Parse {
            line: 2,
            message: "no data rows".into(),
        });
    }
    let epochs = date_order.len();
    let mut weights = vec![0.0; epochs * num_categories];
    for ((e, k), v) in cells {
        weights[e * num_categories + k] = v;
    }
    Trace::new(num_categories, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfgcp_sde::seeded_rng;

    #[test]
    fn synthetic_trace_has_requested_shape() {
        let mut rng = seeded_rng(19);
        let cfg = SyntheticYoutubeTrace {
            categories: 20,
            epochs: 50,
            ..Default::default()
        };
        let t = cfg.generate(&mut rng).unwrap();
        assert_eq!(t.num_categories(), 20);
        assert_eq!(t.num_epochs(), 50);
        assert!(t.weights(0).iter().all(|&w| w > 0.0));
    }

    #[test]
    fn synthetic_trace_is_zipf_skewed_on_average() {
        let mut rng = seeded_rng(20);
        let cfg = SyntheticYoutubeTrace {
            epochs: 400,
            drift_sigma: 0.0,
            ..Default::default()
        };
        let t = cfg.generate(&mut rng).unwrap();
        // Head categories should dominate tail categories on average (the
        // per-category weight summed over every epoch).
        let mut totals = vec![0.0; t.num_categories()];
        for e in 0..t.num_epochs() {
            for (a, w) in totals.iter_mut().zip(t.weights(e)) {
                *a += w;
            }
        }
        assert!(
            totals[0] > totals[19] * 2.0,
            "head {} tail {}",
            totals[0],
            totals[19]
        );
    }

    #[test]
    fn normalized_weights_sum_to_one() {
        let mut rng = seeded_rng(21);
        let t = SyntheticYoutubeTrace::default().generate(&mut rng).unwrap();
        for e in [0, 10, 199] {
            let w = t.normalized_weights(e);
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "epoch {e}");
        }
    }

    #[test]
    fn epoch_clamping_allows_long_simulations() {
        let t = Trace::new(2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.weights(0), &[1.0, 2.0]);
        assert_eq!(t.weights(1), &[3.0, 4.0]);
        assert_eq!(t.weights(99), &[3.0, 4.0]);
    }

    #[test]
    fn trace_shape_validation() {
        assert!(Trace::new(0, vec![1.0]).is_err());
        assert!(Trace::new(2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Trace::new(2, vec![]).is_err());
    }

    const SAMPLE_CSV: &str = "\
video_id,trending_date,title,channel_title,category_id,publish_time,tags,views,likes
a1,17.14.11,\"Song, the \"\"Best\"\"\",Ch1,10,2017-11-13,music,1000,10
a2,17.14.11,Plain title,Ch2,24,2017-11-13,fun,500,5
a3,17.15.11,Another,Ch1,10,2017-11-14,music,2000,20
a4,17.15.11,More,Ch3,24,2017-11-14,fun,100,1
";

    #[test]
    fn kaggle_csv_parses_with_quoted_titles() {
        let t = parse_kaggle_csv(SAMPLE_CSV, 20).unwrap();
        assert_eq!(t.num_epochs(), 2);
        assert_eq!(t.num_categories(), 20);
        // Category 10 → dense index 0, category 24 → dense index 1.
        assert_eq!(t.weights(0)[0], 1000.0);
        assert_eq!(t.weights(0)[1], 500.0);
        assert_eq!(t.weights(1)[0], 2000.0);
        assert_eq!(t.weights(1)[1], 100.0);
    }

    #[test]
    fn kaggle_csv_missing_column_is_reported() {
        let err = parse_kaggle_csv("a,b,c\n1,2,3\n", 5).unwrap_err();
        match err {
            WorkloadError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("trending_date"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn kaggle_csv_bad_views_is_reported_with_line() {
        let bad = "trending_date,category_id,views\nd1,10,notanumber\n";
        let err = parse_kaggle_csv(bad, 5).unwrap_err();
        match err {
            WorkloadError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn csv_splitter_handles_escaped_quotes() {
        let fields = split_csv_line("a,\"b,\"\"c\"\"\",d");
        assert_eq!(fields, vec!["a", "b,\"c\"", "d"]);
    }
}
