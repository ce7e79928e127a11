use std::error::Error;
use std::fmt;

use mtperf_linalg::LinalgError;

/// Error type for dataset construction and model-tree training.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MtreeError {
    /// The dataset has no rows or no attributes.
    EmptyDataset,
    /// A row's length does not match the attribute count.
    RowLengthMismatch {
        /// Expected attribute count.
        expected: usize,
        /// Length of the offending row.
        found: usize,
    },
    /// A value in the dataset is NaN or infinite.
    NonFiniteValue {
        /// Row index of the offending value.
        row: usize,
        /// Column index of the offending attribute, or `None` when the
        /// target value itself is non-finite.
        attr: Option<usize>,
    },
    /// A node's least-squares fit overflowed: the values are finite, but
    /// a sum of their products in the normal equations is not. Names the
    /// column with the largest magnitude among the overflowing entry's.
    FitOverflow {
        /// Row index of that column's largest |value| (the first on ties).
        row: usize,
        /// Column index of the attribute, or `None` for the target.
        attr: Option<usize>,
    },
    /// Attribute names must be unique and non-empty.
    BadAttributeNames,
    /// A caller-supplied attribute index is out of range for the row or
    /// model it was applied to (e.g. a `what_if` change on a column the
    /// instance does not have).
    AttributeOutOfRange {
        /// The offending attribute index.
        attr: usize,
        /// Number of attributes actually available.
        n_attrs: usize,
    },
    /// The same attribute appears more than once in a set of changes that
    /// must be disjoint (e.g. `what_if_many` forcing one column twice —
    /// ambiguous, since only the last write would win silently).
    DuplicateAttribute {
        /// The attribute index that was repeated.
        attr: usize,
    },
    /// Training parameters are inconsistent.
    BadParams(String),
    /// The data itself is degenerate for the requested computation: an
    /// empty partition reached a tree builder, an evaluation set came out
    /// empty (e.g. fully quarantined under a skip policy), or a leaf solve
    /// had no usable rows. Distinct from [`MtreeError::BadParams`]: the
    /// caller's parameters were fine, the data was not.
    DegenerateData(String),
    /// A cooperative cancellation token (deadline or explicit cancel) fired
    /// before the computation finished; partial results were discarded.
    Cancelled,
    /// An underlying linear-algebra failure that could not be recovered.
    Linalg(LinalgError),
}

impl fmt::Display for MtreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MtreeError::EmptyDataset => write!(f, "dataset has no rows or no attributes"),
            MtreeError::RowLengthMismatch { expected, found } => {
                write!(f, "row has {found} values, expected {expected}")
            }
            MtreeError::NonFiniteValue { row, attr } => match attr {
                Some(a) => write!(f, "non-finite value in row {row}, attribute {a}"),
                None => write!(f, "non-finite target in row {row}"),
            },
            MtreeError::FitOverflow { row, attr } => match attr {
                Some(a) => write!(
                    f,
                    "least-squares fit overflows on attribute {a} (largest in row {row})"
                ),
                None => write!(
                    f,
                    "least-squares fit overflows on the target (largest in row {row})"
                ),
            },
            MtreeError::BadAttributeNames => {
                write!(f, "attribute names must be unique and non-empty")
            }
            MtreeError::AttributeOutOfRange { attr, n_attrs } => {
                write!(
                    f,
                    "attribute index {attr} out of range (row has {n_attrs} attributes)"
                )
            }
            MtreeError::DuplicateAttribute { attr } => {
                write!(f, "attribute index {attr} appears more than once")
            }
            MtreeError::BadParams(msg) => write!(f, "bad training parameters: {msg}"),
            MtreeError::DegenerateData(msg) => write!(f, "degenerate data: {msg}"),
            MtreeError::Cancelled => {
                write!(
                    f,
                    "computation cancelled (deadline passed or caller gave up)"
                )
            }
            MtreeError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl Error for MtreeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MtreeError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for MtreeError {
    fn from(e: LinalgError) -> Self {
        match e {
            // Cancellation is a caller decision, not an algebra failure;
            // keep it a first-class variant so callers can match on it.
            LinalgError::Cancelled => MtreeError::Cancelled,
            other => MtreeError::Linalg(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(MtreeError::EmptyDataset.to_string().contains("no rows"));
        assert!(MtreeError::RowLengthMismatch {
            expected: 3,
            found: 2
        }
        .to_string()
        .contains("expected 3"));
        assert!(MtreeError::NonFiniteValue { row: 7, attr: None }
            .to_string()
            .contains("7"));
        assert!(MtreeError::NonFiniteValue {
            row: 7,
            attr: Some(2)
        }
        .to_string()
        .contains("attribute 2"));
        assert!(MtreeError::FitOverflow {
            row: 17,
            attr: Some(4)
        }
        .to_string()
        .contains("attribute 4 (largest in row 17)"));
        assert!(MtreeError::BadParams("x".into()).to_string().contains("x"));
        assert!(MtreeError::DegenerateData("empty fold".into())
            .to_string()
            .contains("empty fold"));
        assert!(MtreeError::AttributeOutOfRange {
            attr: 9,
            n_attrs: 4
        }
        .to_string()
        .contains("index 9"));
        assert!(MtreeError::DuplicateAttribute { attr: 3 }
            .to_string()
            .contains("more than once"));
    }

    #[test]
    fn from_linalg() {
        let e: MtreeError = LinalgError::Singular.into();
        assert!(matches!(e, MtreeError::Linalg(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
