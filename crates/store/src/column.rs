//! Columnar attribute storage.
//!
//! Single-valued attributes are plain code vectors; multi-valued attributes
//! use a CSR layout (offset array + flattened code array), so per-row value
//! sets are contiguous slices and the column never allocates per row.

use crate::value::ValueId;
use serde::{Deserialize, Serialize};

/// One attribute column of an entity table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Column {
    /// Exactly one value per row.
    Single(Vec<ValueId>),
    /// Zero or more values per row, CSR layout.
    Multi(CsrColumn),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Single(v) => v.len(),
            Column::Multi(c) => c.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The values of `row` as a slice (length 1 for single-valued columns).
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    #[inline]
    pub fn values(&self, row: u32) -> &[ValueId] {
        match self {
            Column::Single(v) => std::slice::from_ref(&v[row as usize]),
            Column::Multi(c) => c.values(row),
        }
    }

    /// Whether `row` carries value `v`.
    #[inline]
    pub fn contains(&self, row: u32, v: ValueId) -> bool {
        self.values(row).contains(&v)
    }
}

/// Compressed-sparse-row storage for a multi-valued column.
///
/// `offsets` has `rows + 1` entries; row `r`'s values are
/// `values[offsets[r]..offsets[r + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrColumn {
    offsets: Vec<u32>,
    values: Vec<ValueId>,
}

impl CsrColumn {
    /// Builds a CSR column from per-row value lists.
    pub fn from_rows<I, R>(rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[ValueId]>,
    {
        let mut offsets = vec![0u32];
        let mut values = Vec::new();
        for row in rows {
            values.extend_from_slice(row.as_ref());
            offsets.push(u32::try_from(values.len()).expect("CSR overflow"));
        }
        Self { offsets, values }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Values of one row.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    #[inline]
    pub fn values(&self, row: u32) -> &[ValueId] {
        let r = row as usize;
        let start = self.offsets[r] as usize;
        let end = self.offsets[r + 1] as usize;
        &self.values[start..end]
    }

    /// Total number of stored values across all rows.
    pub fn total_values(&self) -> usize {
        self.values.len()
    }

    /// The raw offset array (`rows + 1` entries, monotone, starting at 0).
    /// Exposed for columnar serialization.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The flattened value codes in row order. Exposed for columnar
    /// serialization.
    pub fn flat_values(&self) -> &[ValueId] {
        &self.values
    }

    /// Reassembles a CSR column from its raw arrays (the inverse of
    /// [`offsets`](Self::offsets) / [`flat_values`](Self::flat_values)),
    /// validating the CSR invariants so a damaged file cannot produce a
    /// column whose accessors panic or slice out of bounds.
    pub fn from_raw_parts(
        offsets: Vec<u32>,
        values: Vec<ValueId>,
    ) -> Result<Self, crate::error::StoreError> {
        use crate::error::StoreError;
        if offsets.first() != Some(&0) {
            return Err(StoreError::invalid("CSR offsets must start at 0"));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(StoreError::invalid("CSR offsets must be monotone"));
        }
        if *offsets.last().expect("checked non-empty") as usize != values.len() {
            return Err(StoreError::invalid(
                "CSR final offset must equal the value count",
            ));
        }
        Ok(Self { offsets, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u32) -> ValueId {
        ValueId(x)
    }

    #[test]
    fn single_column_access() {
        let c = Column::Single(vec![v(3), v(1), v(4)]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.values(1), &[v(1)]);
        assert!(c.contains(2, v(4)));
        assert!(!c.contains(2, v(3)));
    }

    #[test]
    fn csr_from_rows() {
        let c = CsrColumn::from_rows(vec![vec![v(0), v(2)], vec![], vec![v(1)]]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.values(0), &[v(0), v(2)]);
        assert_eq!(c.values(1), &[] as &[ValueId]);
        assert_eq!(c.values(2), &[v(1)]);
        assert_eq!(c.total_values(), 3);
    }

    #[test]
    fn multi_column_contains() {
        let c = Column::Multi(CsrColumn::from_rows(vec![vec![v(0), v(5)], vec![v(5)]]));
        assert!(c.contains(0, v(5)));
        assert!(c.contains(1, v(5)));
        assert!(!c.contains(1, v(0)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn empty_csr() {
        let c = CsrColumn::from_rows(Vec::<Vec<ValueId>>::new());
        assert!(c.is_empty());
        assert_eq!(c.total_values(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_row_panics() {
        let c = Column::Single(vec![v(1)]);
        let _ = c.values(1);
    }
}
