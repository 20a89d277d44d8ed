//! Entity tables (reviewers and items).
//!
//! An [`EntityTable`] owns its [`Schema`], one [`Dictionary`] per attribute,
//! and one [`Column`] per attribute. Rows are appended through
//! [`EntityTableBuilder`], which interns values and enforces the schema
//! (single- vs multi-valued arity).
//!
//! Every table can also hand out a [`PackedCodes`] matrix: the codes of its
//! narrow single-valued attributes laid out row-major, one byte each, so a
//! scan that needs several attributes of one row reads one short contiguous
//! run instead of one slot in each attribute's column.

use std::sync::OnceLock;

use crate::column::{Column, CsrColumn};
use crate::schema::{AttrId, Schema};
use crate::value::{Dictionary, Value, ValueId};

/// One cell of an input row: a single value or a value set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cell {
    /// Atomic value for a single-valued attribute.
    One(Value),
    /// Value set for a multi-valued attribute.
    Many(Vec<Value>),
}

impl From<Value> for Cell {
    fn from(v: Value) -> Self {
        Cell::One(v)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::One(Value::str(s))
    }
}

impl From<i64> for Cell {
    fn from(v: i64) -> Self {
        Cell::One(Value::int(v))
    }
}

impl From<Vec<Value>> for Cell {
    fn from(vs: Vec<Value>) -> Self {
        Cell::Many(vs)
    }
}

/// Row-major `u8` code matrix over a table's *narrow* single-valued
/// attributes — those whose dictionary has at most 256 values, so every
/// code fits a byte. Row `r` is the `stride` bytes at `r * stride`; byte
/// [`slot`](Self::slot)`(attr)` of a row is that attribute's code.
/// Multi-valued attributes and wider dictionaries have no slot and are read
/// through their [`Column`].
///
/// Derived data: a pure function of the columns, so it is never persisted.
/// It is built on first use rather than with the table (a transposition of
/// every packed column; opening a snapshot should not pay for scans it may
/// never run), in a cell of the table itself — tables are immutable and every
/// epoch of a database shares one `Arc<EntityTable>`, so it is built at most
/// once however many appends follow.
#[derive(Debug)]
pub struct PackedCodes {
    stride: usize,
    /// `slots[attr.index()]`: byte position of the attribute in a row.
    slots: Vec<Option<usize>>,
    /// `rows × stride` codes.
    bytes: Vec<u8>,
}

impl PackedCodes {
    /// Largest dictionary whose codes fit one byte.
    const MAX_VALUES: usize = 1 << 8;

    fn build(dicts: &[Dictionary], columns: &[Column], rows: usize) -> Self {
        let mut stride = 0;
        let slots: Vec<Option<usize>> = dicts
            .iter()
            .zip(columns)
            .map(|(dict, col)| {
                let narrow = matches!(col, Column::Single(_)) && dict.len() <= Self::MAX_VALUES;
                narrow.then(|| {
                    stride += 1;
                    stride - 1
                })
            })
            .collect();
        let mut bytes = vec![0u8; rows * stride];
        for (col, slot) in columns.iter().zip(&slots) {
            if let (Column::Single(codes), Some(slot)) = (col, slot) {
                for (row, code) in bytes.chunks_exact_mut(stride).zip(codes) {
                    // Lossless: the dictionary has at most 256 values.
                    row[*slot] = code.0 as u8;
                }
            }
        }
        Self {
            stride,
            slots,
            bytes,
        }
    }

    /// Bytes per row: the number of packed attributes.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Byte position of `attr` within a packed row, or `None` when the
    /// attribute is multi-valued or its dictionary exceeds 256 values.
    pub fn slot(&self, attr: AttrId) -> Option<usize> {
        self.slots[attr.index()]
    }

    /// The packed codes of one row (`stride` bytes).
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    #[inline]
    pub fn row(&self, row: u32) -> &[u8] {
        let start = row as usize * self.stride;
        &self.bytes[start..start + self.stride]
    }
}

/// A fully built, immutable entity table. Not `Clone`: a database shares
/// its tables behind `Arc`s instead of copying them.
#[derive(Debug)]
pub struct EntityTable {
    schema: Schema,
    dicts: Vec<Dictionary>,
    columns: Vec<Column>,
    rows: usize,
    /// Built by the first [`packed_codes`](Self::packed_codes) call.
    packed: OnceLock<PackedCodes>,
}

impl EntityTable {
    /// Reassembles a table from its parts (the snapshot-load path),
    /// validating that the parts agree with each other: one dictionary and
    /// one column per attribute, column arity matching the schema, every
    /// row present in every column, and every stored code resolvable in its
    /// attribute's dictionary. A table that passes can never panic inside
    /// the accessors below on in-range rows.
    pub fn from_parts(
        schema: Schema,
        dicts: Vec<Dictionary>,
        columns: Vec<Column>,
        rows: usize,
    ) -> Result<Self, crate::error::StoreError> {
        use crate::error::StoreError;
        if dicts.len() != schema.len() || columns.len() != schema.len() {
            return Err(StoreError::invalid(format!(
                "entity table has {} attributes but {} dictionaries / {} columns",
                schema.len(),
                dicts.len(),
                columns.len()
            )));
        }
        for (i, ((attr, def), (dict, col))) in schema
            .iter()
            .zip(dicts.iter().zip(columns.iter()))
            .enumerate()
        {
            let _ = attr;
            if col.len() != rows {
                return Err(StoreError::invalid(format!(
                    "column {i} ({}) has {} rows, table has {rows}",
                    def.name,
                    col.len()
                )));
            }
            let multi = matches!(col, Column::Multi(_));
            if multi != def.multi_valued {
                return Err(StoreError::invalid(format!(
                    "column {i} ({}) arity does not match schema",
                    def.name
                )));
            }
            let max = dict.len() as u32;
            let in_range = match col {
                Column::Single(v) => v.iter().all(|id| id.0 < max),
                Column::Multi(c) => c.flat_values().iter().all(|id| id.0 < max),
            };
            if !in_range {
                return Err(StoreError::invalid(format!(
                    "column {i} ({}) stores a code outside its dictionary",
                    def.name
                )));
            }
        }
        Ok(Self {
            schema,
            dicts,
            columns,
            rows,
            packed: OnceLock::new(),
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The dictionary of one attribute.
    pub fn dictionary(&self, attr: AttrId) -> &Dictionary {
        &self.dicts[attr.index()]
    }

    /// The column of one attribute.
    pub fn column(&self, attr: AttrId) -> &Column {
        &self.columns[attr.index()]
    }

    /// The row-major packed code matrix of the narrow single-valued
    /// attributes, built by the first call.
    pub fn packed_codes(&self) -> &PackedCodes {
        self.packed
            .get_or_init(|| PackedCodes::build(&self.dicts, &self.columns, self.rows))
    }

    /// The encoded values of `row` for `attr` (slice of length 1 for
    /// single-valued attributes).
    #[inline]
    pub fn values(&self, row: u32, attr: AttrId) -> &[ValueId] {
        self.columns[attr.index()].values(row)
    }

    /// Decodes the values of `row` for `attr` into owned [`Value`]s.
    pub fn decoded_values(&self, row: u32, attr: AttrId) -> Vec<Value> {
        let dict = self.dictionary(attr);
        self.values(row, attr)
            .iter()
            .map(|&id| dict.value(id).clone())
            .collect()
    }

    /// Whether `row` carries `value` for `attr`.
    pub fn row_has(&self, row: u32, attr: AttrId, value: ValueId) -> bool {
        self.columns[attr.index()].contains(row, value)
    }
}

/// Builder for [`EntityTable`].
#[derive(Debug, Clone)]
pub struct EntityTableBuilder {
    schema: Schema,
    dicts: Vec<Dictionary>,
    single: Vec<Option<Vec<ValueId>>>,
    multi: Vec<Option<Vec<Vec<ValueId>>>>,
    rows: usize,
}

impl EntityTableBuilder {
    /// Creates a builder for the given schema.
    pub fn new(schema: Schema) -> Self {
        let n = schema.len();
        let mut single: Vec<Option<Vec<ValueId>>> = Vec::with_capacity(n);
        let mut multi: Vec<Option<Vec<Vec<ValueId>>>> = Vec::with_capacity(n);
        for (_, def) in schema.iter() {
            if def.multi_valued {
                single.push(None);
                multi.push(Some(Vec::new()));
            } else {
                single.push(Some(Vec::new()));
                multi.push(None);
            }
        }
        Self {
            dicts: vec![Dictionary::new(); n],
            schema,
            single,
            multi,
            rows: 0,
        }
    }

    /// Appends one row. `cells` must have one entry per schema attribute, in
    /// schema order.
    ///
    /// # Panics
    /// Panics on arity mismatch, or when a `Many` cell targets a
    /// single-valued attribute (and vice versa; a `One` cell on a
    /// multi-valued attribute is accepted as a singleton set).
    pub fn push_row(&mut self, cells: Vec<Cell>) -> u32 {
        assert_eq!(
            cells.len(),
            self.schema.len(),
            "row arity does not match schema"
        );
        for (i, cell) in cells.into_iter().enumerate() {
            let def = self.schema.attr(AttrId(i as u16));
            let dict = &mut self.dicts[i];
            match (cell, def.multi_valued) {
                (Cell::One(v), false) => {
                    let id = dict.intern(v);
                    self.single[i].as_mut().expect("single column").push(id);
                }
                (Cell::One(v), true) => {
                    let id = dict.intern(v);
                    self.multi[i].as_mut().expect("multi column").push(vec![id]);
                }
                (Cell::Many(vs), true) => {
                    let ids: Vec<ValueId> = vs.into_iter().map(|v| dict.intern(v)).collect();
                    self.multi[i].as_mut().expect("multi column").push(ids);
                }
                (Cell::Many(_), false) => {
                    panic!(
                        "attribute {:?} is single-valued but got a value set",
                        def.name
                    );
                }
            }
        }
        let row = self.rows as u32;
        self.rows += 1;
        row
    }

    /// Number of rows appended so far.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether no rows were appended.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Finalizes the table.
    pub fn build(self) -> EntityTable {
        let columns: Vec<Column> = self
            .single
            .into_iter()
            .zip(self.multi)
            .map(|(s, m)| match (s, m) {
                (Some(v), None) => Column::Single(v),
                (None, Some(rows)) => Column::Multi(CsrColumn::from_rows(rows)),
                _ => unreachable!("builder invariant"),
            })
            .collect();
        EntityTable {
            schema: self.schema,
            dicts: self.dicts,
            columns,
            rows: self.rows,
            packed: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn restaurant_table() -> EntityTable {
        // Mirrors Figure 2's restaurant table.
        let mut schema = Schema::new();
        schema.add("cuisine", true);
        schema.add("state", false);
        schema.add("city", false);
        let mut b = EntityTableBuilder::new(schema);
        b.push_row(vec![
            Cell::Many(vec![Value::str("Burgers"), Value::str("Barbeque")]),
            "North Carolina".into(),
            "Charlotte".into(),
        ]);
        b.push_row(vec![
            Cell::Many(vec![Value::str("Japanese"), Value::str("Sushi")]),
            "Texas".into(),
            "Austin".into(),
        ]);
        b.push_row(vec![
            Cell::One(Value::str("Mexican")),
            "Michigan".into(),
            "Detroit".into(),
        ]);
        b.build()
    }

    #[test]
    fn build_and_access() {
        let t = restaurant_table();
        assert_eq!(t.len(), 3);
        let cuisine = t.schema().attr_by_name("cuisine").unwrap();
        let city = t.schema().attr_by_name("city").unwrap();
        assert_eq!(t.values(0, cuisine).len(), 2);
        assert_eq!(t.values(2, cuisine).len(), 1, "One on multi = singleton");
        assert_eq!(t.decoded_values(1, city), vec![Value::str("Austin")]);
    }

    #[test]
    fn row_has_checks_membership() {
        let t = restaurant_table();
        let cuisine = t.schema().attr_by_name("cuisine").unwrap();
        let sushi = t.dictionary(cuisine).code(&Value::str("Sushi")).unwrap();
        assert!(t.row_has(1, cuisine, sushi));
        assert!(!t.row_has(0, cuisine, sushi));
    }

    #[test]
    fn dictionaries_are_per_attribute() {
        let t = restaurant_table();
        let state = t.schema().attr_by_name("state").unwrap();
        let city = t.schema().attr_by_name("city").unwrap();
        assert_eq!(t.dictionary(state).len(), 3);
        assert_eq!(t.dictionary(city).len(), 3);
        assert!(t.dictionary(city).code(&Value::str("Texas")).is_none());
    }

    #[test]
    fn packed_codes_mirror_narrow_single_columns() {
        let t = restaurant_table();
        let cuisine = t.schema().attr_by_name("cuisine").unwrap();
        let state = t.schema().attr_by_name("state").unwrap();
        let city = t.schema().attr_by_name("city").unwrap();
        let packed = t.packed_codes();
        assert_eq!(packed.stride(), 2);
        assert_eq!(packed.slot(cuisine), None, "multi-valued: no slot");
        for attr in [state, city] {
            let slot = packed.slot(attr).unwrap();
            for row in 0..t.len() as u32 {
                assert_eq!(
                    u32::from(packed.row(row)[slot]),
                    t.values(row, attr)[0].0,
                    "row {row}"
                );
            }
        }
        assert!(std::ptr::eq(packed, t.packed_codes()), "built once");
    }

    #[test]
    fn packed_codes_skip_dictionaries_wider_than_a_byte() {
        let mut schema = Schema::new();
        schema.add("wide", false);
        schema.add("full", false);
        let mut b = EntityTableBuilder::new(schema);
        for i in 0..300i64 {
            b.push_row(vec![Cell::from(i), Cell::from(i % 256)]);
        }
        let t = b.build();
        let packed = t.packed_codes();
        assert_eq!(packed.slot(AttrId(0)), None, "300 values need two bytes");
        assert_eq!(packed.slot(AttrId(1)), Some(0), "256 values still fit");
        assert_eq!(packed.row(255), &[255]);
        assert_eq!(packed.row(299), &[43]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut schema = Schema::new();
        schema.add("a", false);
        let mut b = EntityTableBuilder::new(schema);
        b.push_row(vec![]);
    }

    #[test]
    #[should_panic(expected = "single-valued")]
    fn set_on_single_attr_panics() {
        let mut schema = Schema::new();
        schema.add("a", false);
        let mut b = EntityTableBuilder::new(schema);
        b.push_row(vec![Cell::Many(vec![Value::int(1), Value::int(2)])]);
    }

    #[test]
    fn empty_table() {
        let t = EntityTableBuilder::new(Schema::new()).build();
        assert!(t.is_empty());
        assert_eq!(t.packed_codes().stride(), 0);
    }
}
