//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§V): Figs. 3–14, Table II, and the ablations called out in
//! `DESIGN.md` §5.
//!
//! Each experiment lives in [`experiments`] as a pure function returning
//! [`Row`]s, listed once in the [`EXPERIMENTS`] registry; `bin/reproduce`
//! runs all of them, or the ones named on its command line, writing
//! `target/experiments/<name>.csv` for each. Measured-vs-paper shape notes
//! live in `EXPERIMENTS.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
mod rollout;

pub use rollout::{rollout_under_mean_field, RolloutPolicy, RolloutResult};

use std::io::Write as _;
use std::path::PathBuf;

/// One data point of an experiment: `(series label, x, y)` within a named
/// experiment — exactly one curve point of the corresponding paper figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Experiment id, e.g. `"fig04"`.
    pub exp: &'static str,
    /// Series (curve/legend) label, e.g. `"t=0.25"` or `"MFG-CP"`.
    pub series: String,
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Row {
    /// Construct a row.
    pub fn new(exp: &'static str, series: impl Into<String>, x: f64, y: f64) -> Self {
        Self {
            exp,
            series: series.into(),
            x,
            y,
        }
    }
}

/// A registered experiment: its name (the CSV file stem and the
/// `reproduce` argument) and the function producing its rows.
pub type Experiment = (&'static str, fn() -> Vec<Row>);

/// Every experiment — each figure and table of §V, then the ablations —
/// in the order `reproduce` runs them. The single list of experiments.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig03_channel", experiments::fig03_channel),
    (
        "fig04_meanfield_evolution",
        experiments::fig04_meanfield_evolution,
    ),
    (
        "fig05_policy_evolution",
        experiments::fig05_policy_evolution,
    ),
    ("fig06_heatmap_qk", experiments::fig06_heatmap_qk),
    ("fig07_heatmap_sigma", experiments::fig07_heatmap_sigma),
    ("fig08_w5_sweep", experiments::fig08_w5_sweep),
    ("fig09_convergence", experiments::fig09_convergence),
    (
        "fig10_init_distribution",
        experiments::fig10_init_distribution,
    ),
    ("fig11_eta1_time", experiments::fig11_eta1_time),
    ("fig12_total_vs_eta1", experiments::fig12_total_vs_eta1),
    (
        "fig13_popularity_sweep",
        experiments::fig13_popularity_sweep,
    ),
    (
        "fig14_scheme_comparison",
        experiments::fig14_scheme_comparison,
    ),
    (
        "table2_computation_time",
        experiments::table2_computation_time,
    ),
    ("ablation_relaxation", experiments::ablation_relaxation),
    ("ablation_grid", experiments::ablation_grid),
    ("ablation_fpk_form", experiments::ablation_fpk_form),
    ("ablation_finite_m", experiments::ablation_finite_m),
    ("ablation_terminal", experiments::ablation_terminal),
    ("ablation_fictitious", experiments::ablation_fictitious),
    ("ablation_population", experiments::ablation_population),
];

/// Resolve experiment names against [`EXPERIMENTS`], keeping the
/// caller's order; no names selects every experiment.
///
/// # Errors
///
/// Returns the first name that is not registered.
pub fn select_experiments(names: &[String]) -> Result<Vec<Experiment>, String> {
    if names.is_empty() {
        return Ok(EXPERIMENTS.to_vec());
    }
    names
        .iter()
        .map(|name| {
            EXPERIMENTS
                .iter()
                .find(|(n, _)| n == name)
                .copied()
                .ok_or_else(|| name.clone())
        })
        .collect()
}

/// Write rows to `target/experiments/<name>.csv`, creating directories as
/// needed. Returns the path written.
///
/// # Panics
///
/// Panics on I/O errors (experiment binaries have no meaningful recovery).
pub fn write_csv(name: &str, rows: &[Row]) -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "exp,series,x,y").expect("write header");
    for r in rows {
        writeln!(f, "{},{},{},{}", r.exp, r.series, r.x, r.y).expect("write row");
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_construct_and_serialize() {
        let rows = vec![Row::new("figX", "s", 1.0, 2.0)];
        let path = write_csv("test_rows", &rows);
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("figX,s,1,2"));
    }

    #[test]
    fn registry_names_are_unique_and_unknown_names_are_rejected() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");

        assert_eq!(select_experiments(&[]).unwrap().len(), EXPERIMENTS.len());
        let picked = select_experiments(&["ablation_grid".into(), "fig03_channel".into()]).unwrap();
        assert_eq!(picked[0].0, "ablation_grid");
        assert_eq!(picked[1].0, "fig03_channel");
        assert_eq!(
            select_experiments(&["fig03_channel".into(), "fig99".into()]).err(),
            Some("fig99".to_string())
        );
    }

    /// Doc-sync guard: every `bin/<target>` DESIGN.md mentions must exist
    /// as a binary source file, every `reproduce <name>` it mentions must
    /// be a registered experiment, and every registered experiment must
    /// appear in DESIGN.md as `reproduce <name>`.
    #[test]
    fn design_md_experiment_index_matches_the_binaries() {
        let design = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md"),
        )
        .expect("DESIGN.md exists at the workspace root");
        let bin_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let binaries: Vec<String> = std::fs::read_dir(&bin_dir)
            .expect("bin dir")
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                name.strip_suffix(".rs").map(str::to_string)
            })
            .collect();
        // Every `bin/...` token in DESIGN.md resolves to a real binary.
        for token in design.split_whitespace() {
            if let Some(rest) = token.strip_prefix("`bin/") {
                let target = rest.trim_end_matches(['`', '|', ',']).trim_end_matches('`');
                assert!(
                    binaries.iter().any(|b| b == target),
                    "DESIGN.md references missing binary `{target}`"
                );
            }
        }
        // Every `reproduce <name>` in DESIGN.md is a registered experiment.
        for piece in design.split("`reproduce ").skip(1) {
            let name = piece.split('`').next().unwrap_or_default();
            assert!(
                EXPERIMENTS.iter().any(|(n, _)| *n == name),
                "DESIGN.md references unregistered experiment `{name}`"
            );
        }
        // Every registered experiment is documented.
        for (name, _) in EXPERIMENTS {
            assert!(
                design.contains(&format!("`reproduce {name}`")),
                "experiment `{name}` is not referenced in DESIGN.md"
            );
        }
    }

    /// Whether `word` is spelled like an experiment name: `fig<digit>…`,
    /// `table<digit>…` or `ablation_…`, all word characters.
    fn looks_like_experiment(word: &str) -> bool {
        let numbered = |prefix: &str| {
            word.strip_prefix(prefix)
                .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
        };
        let named = numbered("fig") || numbered("table") || word.starts_with("ablation_");
        named && word.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    }

    /// The experiment names `text` cites: every backticked name spelled
    /// like one, and the arguments of every `reproduce` command line (all
    /// of them after `reproduce --`, name-like ones after bare `reproduce`).
    fn cited_experiments(text: &str) -> Vec<String> {
        let mut names: Vec<String> = text
            .split('`')
            .filter(|piece| looks_like_experiment(piece))
            .map(str::to_string)
            .collect();
        for (i, _) in text.match_indices("reproduce") {
            let rest = &text[i + "reproduce".len()..];
            if !rest.starts_with(char::is_whitespace) {
                continue;
            }
            let mut words = rest.split_whitespace().peekable();
            let after_dashes = words.next_if_eq(&"--").is_some();
            for word in words {
                let end = word
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(word.len());
                let name = &word[..end];
                if name.is_empty() || !(after_dashes || looks_like_experiment(name)) {
                    break;
                }
                names.push(name.to_string());
                if end < word.len() {
                    break;
                }
            }
        }
        names
    }

    /// Doc-sync guard: every experiment name that EXPERIMENTS.md,
    /// DESIGN.md §5 or README.md cites resolves through
    /// [`select_experiments`], so a deleted experiment cannot leave a
    /// dangling reference (a `reproduce` line that would fail with
    /// "unknown experiment").
    #[test]
    fn docs_name_only_registered_experiments() {
        let design = include_str!("../../../DESIGN.md");
        let section5 = design
            .split("\n## 5. ")
            .nth(1)
            .and_then(|s| s.split("\n## ").next())
            .expect("DESIGN.md has a §5");
        let docs = [
            ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
            ("DESIGN.md §5", section5),
            ("README.md", include_str!("../../../README.md")),
        ];
        for (doc, text) in docs {
            let names = cited_experiments(text);
            assert!(!names.is_empty(), "{doc} cites no experiment");
            for name in names {
                assert!(
                    select_experiments(std::slice::from_ref(&name)).is_ok(),
                    "{doc} cites unregistered experiment `{name}`"
                );
            }
        }
    }

    #[test]
    fn cited_experiments_reads_backticks_and_reproduce_lines() {
        let text = "see `fig03_channel` and `fig06`, not `figure` or `ablation_x y`;\n\
                    reproduce -- fig04_meanfield_evolution ablation_gone\n```\n\
                    `reproduce ablation_grid`, `reproduce --\nfig14_scheme_comparison`, \
                    the `reproduce` binary, reproduce the paper";
        assert_eq!(
            cited_experiments(text),
            [
                "fig03_channel",
                "fig06",
                "fig04_meanfield_evolution",
                "ablation_gone",
                "ablation_grid",
                "fig14_scheme_comparison",
            ]
        );
    }
}
