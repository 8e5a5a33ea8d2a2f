//! Normalized non-negative feature vectors — the histogram operands of
//! Definition 1.

use crate::error::CoreError;
use crate::MASS_EPS;
use emd_json::Value;
use std::sync::Arc;

/// A non-negative feature vector of normalized total mass — the operand
/// type of Definition 1 in the paper.
///
/// Invariants (enforced at construction):
/// * at least one bin,
/// * every entry finite and `>= 0`,
/// * entries sum to 1 within [`MASS_EPS`].
///
/// Histograms are immutable after construction, so a `Histogram` is a
/// shared handle: `clone` bumps a reference count and the bins are never
/// copied. That keeps every `Histogram` in a database valid for the
/// lifetime of an index built over it, and lets a live snapshot hold the
/// very objects the index holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bins: Arc<[f64]>,
}

impl Histogram {
    /// Wrap an already-normalized mass vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyHistogram`] for an empty vector,
    /// [`CoreError::InvalidMass`] for a negative or non-finite bin, and
    /// [`CoreError::NotNormalized`] when the total mass is off 1 by more than
    /// [`crate::MASS_EPS`].
    pub fn new(bins: Vec<f64>) -> Result<Self, CoreError> {
        Self::from_slice(&bins)
    }

    /// [`Histogram::new`] over borrowed masses: the same checks, and the
    /// one allocation is the histogram's own.
    ///
    /// # Errors
    ///
    /// The errors of [`Histogram::new`].
    pub fn from_slice(bins: &[f64]) -> Result<Self, CoreError> {
        Self::validate_entries(bins)?;
        let total: f64 = bins.iter().sum();
        if (total - 1.0).abs() > MASS_EPS {
            return Err(CoreError::NotNormalized { total });
        }
        Ok(Histogram { bins: bins.into() })
    }

    /// Normalize an arbitrary non-negative vector to total mass 1 and wrap
    /// it. Fails on zero total mass.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyHistogram`] for an empty vector,
    /// [`CoreError::InvalidMass`] for a negative or non-finite bin, and
    /// [`CoreError::ZeroMass`] when the total mass is zero (nothing to
    /// normalize).
    pub fn normalized(bins: Vec<f64>) -> Result<Self, CoreError> {
        Self::validate_entries(&bins)?;
        let total: f64 = bins.iter().sum();
        if total <= 0.0 {
            return Err(CoreError::ZeroMass);
        }
        Ok(Histogram {
            bins: bins.iter().map(|x| x / total).collect(),
        })
    }

    /// A histogram with all mass in a single bin — the witness construction
    /// used in the paper's Theorem 2 and Theorem 3 proofs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyHistogram`] when `dim` is zero and
    /// [`CoreError::DimensionMismatch`] when `bin` is out of range.
    pub fn unit(dim: usize, bin: usize) -> Result<Self, CoreError> {
        if dim == 0 {
            return Err(CoreError::EmptyHistogram);
        }
        if bin >= dim {
            return Err(CoreError::InvalidMass {
                index: bin,
                value: f64::NAN,
            });
        }
        let mut bins = vec![0.0; dim];
        bins[bin] = 1.0;
        Ok(Histogram { bins: bins.into() })
    }

    /// The uniform histogram `1/d` in every bin.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyHistogram`] when `dim` is zero.
    pub fn uniform(dim: usize) -> Result<Self, CoreError> {
        if dim == 0 {
            return Err(CoreError::EmptyHistogram);
        }
        Ok(Histogram {
            bins: vec![1.0 / dim as f64; dim].into(),
        })
    }

    fn validate_entries(bins: &[f64]) -> Result<(), CoreError> {
        if bins.is_empty() {
            return Err(CoreError::EmptyHistogram);
        }
        for (index, &value) in bins.iter().enumerate() {
            if value < 0.0 || !value.is_finite() {
                return Err(CoreError::InvalidMass { index, value });
            }
        }
        Ok(())
    }

    /// Number of bins `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.bins.len()
    }

    /// Bin masses.
    #[inline]
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Mass in bin `i`.
    #[inline]
    pub fn mass(&self, i: usize) -> f64 {
        self.bins[i]
    }

    /// Total mass (1 up to rounding).
    pub fn total_mass(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Iterate over `(bin, mass)` pairs with strictly positive mass.
    /// Multimedia histograms are typically sparse; the EMD solver strips
    /// zero bins through this iterator.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.bins
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, mass)| mass > 0.0)
    }

    /// Number of bins with strictly positive mass.
    pub fn support_size(&self) -> usize {
        self.bins.iter().filter(|&&mass| mass > 0.0).count()
    }

    /// Manhattan (L1) distance between two histograms of equal
    /// dimensionality. Used by the scaled-L1 lower bound and in tests.
    pub fn l1_distance(&self, other: &Histogram) -> f64 {
        debug_assert_eq!(self.dim(), other.dim());
        self.bins
            .iter()
            .zip(other.bins.iter())
            .map(|(a, b)| (a - b).abs())
            .sum()
    }
}

impl Histogram {
    /// Append the JSON form: the raw mass vector as an array of numbers.
    pub fn to_json(&self, out: &mut String) {
        emd_json::write_array(out, &self.bins, |out, &mass| {
            emd_json::write_number(out, mass);
        });
    }

    /// Decode the JSON form, re-validating through [`Histogram::new`].
    ///
    /// # Errors
    ///
    /// Returns a message when `value` is not an array of numbers or the
    /// masses are not a valid histogram.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let bins = value
            .as_array()
            .and_then(|items| items.iter().map(Value::as_f64).collect())
            .ok_or("a histogram must be an array of numbers")?;
        Histogram::new(bins).map_err(|e| e.to_string())
    }
}

impl AsRef<[f64]> for Histogram {
    fn as_ref(&self) -> &[f64] {
        &self.bins
    }
}

#[cfg(test)]
impl Histogram {
    /// `bins` as a histogram without the entry and mass checks, so tests
    /// can reach what lies behind them.
    pub(crate) fn unchecked(bins: &[f64]) -> Self {
        Histogram { bins: bins.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_normalized() {
        let h = Histogram::new(vec![0.5, 0.0, 0.2, 0.0, 0.3, 0.0]).unwrap();
        assert_eq!(h.dim(), 6);
        assert!((h.total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(h.support_size(), 3);
    }

    #[test]
    fn clone_shares_storage() {
        let h = Histogram::new(vec![0.5, 0.5]).unwrap();
        let copy = h.clone();
        assert_eq!(copy, h);
        assert_eq!(copy.bins().as_ptr(), h.bins().as_ptr());
    }

    #[test]
    fn rejects_unnormalized() {
        assert!(matches!(
            Histogram::new(vec![0.5, 0.6]).unwrap_err(),
            CoreError::NotNormalized { .. }
        ));
    }

    #[test]
    fn rejects_negative_and_nan() {
        assert!(matches!(
            Histogram::new(vec![1.5, -0.5]).unwrap_err(),
            CoreError::InvalidMass { index: 1, .. }
        ));
        assert!(matches!(
            Histogram::new(vec![f64::NAN, 1.0]).unwrap_err(),
            CoreError::InvalidMass { index: 0, .. }
        ));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            Histogram::new(vec![]).unwrap_err(),
            CoreError::EmptyHistogram
        );
    }

    #[test]
    fn normalizes() {
        let h = Histogram::normalized(vec![2.0, 2.0, 4.0]).unwrap();
        assert_eq!(h.bins(), &[0.25, 0.25, 0.5]);
    }

    #[test]
    fn normalization_rejects_zero_mass() {
        assert_eq!(
            Histogram::normalized(vec![0.0, 0.0]).unwrap_err(),
            CoreError::ZeroMass
        );
    }

    #[test]
    fn unit_and_uniform() {
        let u = Histogram::unit(4, 2).unwrap();
        assert_eq!(u.bins(), &[0.0, 0.0, 1.0, 0.0]);
        assert!(Histogram::unit(4, 4).is_err());
        let f = Histogram::uniform(4).unwrap();
        assert!(f.bins().iter().all(|&x| (x - 0.25).abs() < 1e-12));
    }

    #[test]
    fn nonzero_iterates_support() {
        let h = Histogram::new(vec![0.5, 0.0, 0.5]).unwrap();
        let support: Vec<_> = h.nonzero().collect();
        assert_eq!(support, vec![(0, 0.5), (2, 0.5)]);
    }

    #[test]
    fn l1_distance_matches_manual() {
        let x = Histogram::new(vec![0.5, 0.0, 0.2, 0.0, 0.3, 0.0]).unwrap();
        let y = Histogram::new(vec![0.0, 0.5, 0.0, 0.2, 0.0, 0.3]).unwrap();
        assert!((x.l1_distance(&y) - 2.0).abs() < 1e-12);
    }

    fn from_text(text: &str) -> Result<Histogram, String> {
        Histogram::from_json(&emd_json::parse(text).unwrap())
    }

    #[test]
    fn json_roundtrip() {
        let h = Histogram::new(vec![0.25, 0.75]).unwrap();
        let mut json = String::new();
        h.to_json(&mut json);
        assert_eq!(json, "[0.25,0.75]");
        assert_eq!(from_text(&json).unwrap(), h);
    }

    #[test]
    fn json_rejects_invalid() {
        // Not normalized, wrong shape, wrong element type, empty.
        for bad in [
            "[0.5, 0.6]",
            r#"{"bins": [1]}"#,
            r#"[0.5, "0.5"]"#,
            "[]",
            "1",
        ] {
            assert!(from_text(bad).is_err(), "accepted {bad}");
        }
    }
}
