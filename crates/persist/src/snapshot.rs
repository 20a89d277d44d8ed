//! The versioned binary snapshot format for a [`SubjectiveDb`].
//!
//! A snapshot is a single file holding the entire database in its columnar
//! in-memory layout, so loading is a handful of bulk vector reads instead
//! of re-parsing CSV text, re-interning dictionaries and re-building
//! inverted indexes. Layout:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header   magic "SDXSNAP1" (8) · version u32 · reserved u32   │
//! ├──────────────────────────────────────────────────────────────┤
//! │ section  id u16 · len u64 · crc32 u32 · payload [len]        │
//! │ …        (meta, reviewer table, item table, ratings,         │
//! │           reviewer containers, item containers)              │
//! ├──────────────────────────────────────────────────────────────┤
//! │ table    count u32 · {id u16, offset u64, len u64, crc u32}… │
//! ├──────────────────────────────────────────────────────────────┤
//! │ footer   table_offset u64 · table_crc u32 · "SDXSNEND" (8)   │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every payload and the section table itself carry a CRC-32; the reader
//! verifies checksums and structural invariants before any decoded data is
//! used, and returns a [`StoreError`] (never panics, never yields a
//! silently-wrong database) on any mismatch. Writing streams through a
//! `BufWriter` into a temp file in the target directory, fsyncs, atomically
//! renames over the destination and fsyncs the directory, so a crashed
//! writer leaves the previous snapshot intact and a returned write survives
//! a power loss.
//!
//! Format history:
//!
//! * **v1** persisted flat posting lists (sections 5/6). It is no longer
//!   read: a v1 file is a [`StoreErrorKind::Format`] error.
//! * **v2** persists the compressed hybrid containers directly
//!   (sections 7/8), preserving each container's class so load reproduces
//!   the in-memory index bit-for-bit. It is the only format the reader
//!   speaks. A file missing a container section is corrupt, like one
//!   missing any other section; container tag 2 (the retired run-list
//!   encoding) is a `Format` error.
//!
//! [`StoreErrorKind::Format`]: subdex_store::StoreErrorKind::Format

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use subdex_store::{
    Column, CompressedIndex, Container, CsrColumn, Dictionary, Entity, EntityTable, RatingTable,
    Schema, StoreError, SubjectiveDb, ValueId,
};

use crate::codec::{
    put_str, put_u16, put_u32, put_u32_slice, put_u64, put_u64_slice, put_u8_slice, put_value,
    Cursor,
};
use crate::crc::crc32;

/// Leading magic: identifies a SubDEx snapshot, format generation 1.
pub const MAGIC: &[u8; 8] = b"SDXSNAP1";
/// Trailing magic: proves the footer (and thus the whole file) is complete.
pub const TAIL_MAGIC: &[u8; 8] = b"SDXSNEND";
/// Current format version; the reader accepts exactly this version.
pub const FORMAT_VERSION: u32 = 2;

const SEC_META: u16 = 1;
const SEC_REVIEWERS: u16 = 2;
const SEC_ITEMS: u16 = 3;
const SEC_RATINGS: u16 = 4;
/// Compressed hybrid containers. Ids 5/6 held format v1's flat posting
/// lists; never reuse them.
const SEC_REVIEWER_CINDEX: u16 = 7;
const SEC_ITEM_CINDEX: u16 = 8;

const HEADER_LEN: usize = 16;
const FOOTER_LEN: usize = 20;

/// What a loaded snapshot reports about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Database append epoch at snapshot time.
    pub epoch: u64,
    /// Highest WAL batch sequence folded into this snapshot; replay skips
    /// WAL frames at or below it.
    pub last_seq: u64,
    /// Size of the snapshot file in bytes.
    pub bytes: u64,
}

// ---------------------------------------------------------------- encoding

fn encode_meta(db: &SubjectiveDb, last_seq: u64) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, db.epoch());
    put_u64(&mut out, last_seq);
    let r = db.ratings();
    out.push(r.scale());
    put_u16(&mut out, r.dim_count() as u16);
    for name in r.dim_names() {
        put_str(&mut out, name);
    }
    put_u64(&mut out, db.reviewers().len() as u64);
    put_u64(&mut out, db.items().len() as u64);
    put_u64(&mut out, r.len() as u64);
    out
}

fn encode_entity_table(table: &EntityTable) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, table.len() as u64);
    put_u16(&mut out, table.schema().len() as u16);
    for (_, def) in table.schema().iter() {
        put_str(&mut out, &def.name);
        out.push(def.multi_valued as u8);
    }
    for attr in table.schema().attr_ids() {
        let dict = table.dictionary(attr);
        put_u64(&mut out, dict.len() as u64);
        for (_, v) in dict.iter() {
            put_value(&mut out, v);
        }
        match table.column(attr) {
            Column::Single(codes) => {
                out.push(0);
                put_u64(&mut out, codes.len() as u64);
                for id in codes {
                    put_u32(&mut out, id.0);
                }
            }
            Column::Multi(csr) => {
                out.push(1);
                put_u32_slice(&mut out, csr.offsets());
                put_u64(&mut out, csr.flat_values().len() as u64);
                for id in csr.flat_values() {
                    put_u32(&mut out, id.0);
                }
            }
        }
    }
    out
}

fn encode_ratings(r: &RatingTable) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32_slice(&mut out, r.reviewer_column());
    put_u32_slice(&mut out, r.item_column());
    for dim in r.dims() {
        put_u8_slice(&mut out, r.score_column(dim));
    }
    out
}

/// Container payload tags; part of the on-disk format, never renumber.
/// Tag 2 held the retired run-list encoding and is rejected on read.
const TAG_ARRAY: u8 = 0;
const TAG_BITMAP: u8 = 1;

/// Encodes a compressed index container-by-container, preserving each
/// container's class so the loaded index is bit-for-bit the one that was
/// written (promotion is deterministic, but persisting the class means the
/// reader never has to re-derive it).
fn encode_cindex(index: &CompressedIndex) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, index.rows() as u64);
    put_u16(&mut out, index.containers().len() as u16);
    for per_attr in index.containers() {
        put_u64(&mut out, per_attr.len() as u64);
        for container in per_attr {
            match container {
                Container::Array(ids) => {
                    out.push(TAG_ARRAY);
                    put_u32_slice(&mut out, ids);
                }
                Container::Bitmap { words, card } => {
                    out.push(TAG_BITMAP);
                    put_u32(&mut out, *card);
                    put_u64_slice(&mut out, words);
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------- decoding

struct MetaFields {
    epoch: u64,
    last_seq: u64,
    scale: u8,
    dim_names: Vec<String>,
    reviewer_count: usize,
    item_count: usize,
    rating_count: usize,
}

fn decode_meta(bytes: &[u8]) -> Result<MetaFields, StoreError> {
    let mut c = Cursor::new(bytes, "snapshot meta");
    let epoch = c.u64()?;
    let last_seq = c.u64()?;
    let scale = c.u8()?;
    let dim_count = c.u16()? as usize;
    let mut dim_names = Vec::with_capacity(dim_count);
    for _ in 0..dim_count {
        dim_names.push(c.str()?);
    }
    Ok(MetaFields {
        epoch,
        last_seq,
        scale,
        dim_names,
        reviewer_count: c.u64()? as usize,
        item_count: c.u64()? as usize,
        rating_count: c.u64()? as usize,
    })
}

fn decode_value_ids(c: &mut Cursor<'_>) -> Result<Vec<ValueId>, StoreError> {
    Ok(c.u32_vec()?.into_iter().map(ValueId).collect())
}

fn decode_entity_table(bytes: &[u8], what: &str) -> Result<EntityTable, StoreError> {
    let mut c = Cursor::new(bytes, what);
    let rows = c.u64()? as usize;
    let attr_count = c.u16()? as usize;
    let mut schema = Schema::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..attr_count {
        let name = c.str()?;
        let multi = c.u8()? != 0;
        // `Schema::add` panics on duplicates; a damaged file must error.
        if !seen.insert(name.clone()) {
            return Err(StoreError::corrupt(format!(
                "{what}: duplicate attribute name {name:?}"
            )));
        }
        schema.add(name, multi);
    }
    let mut dicts = Vec::with_capacity(attr_count);
    let mut columns = Vec::with_capacity(attr_count);
    for _ in 0..attr_count {
        let value_count = c.len_prefix(2)?;
        let mut values = Vec::with_capacity(value_count);
        for _ in 0..value_count {
            values.push(c.value()?);
        }
        dicts.push(Dictionary::from_values(values)?);
        columns.push(match c.u8()? {
            0 => Column::Single(decode_value_ids(&mut c)?),
            1 => {
                let offsets = c.u32_vec()?;
                let values = decode_value_ids(&mut c)?;
                if offsets.is_empty() {
                    return Err(StoreError::corrupt(format!("{what}: empty CSR offsets")));
                }
                Column::Multi(CsrColumn::from_raw_parts(offsets, values)?)
            }
            tag => {
                return Err(StoreError::corrupt(format!(
                    "{what}: unknown column tag {tag}"
                )))
            }
        });
    }
    if !c.is_exhausted() {
        return Err(StoreError::corrupt(format!("{what}: trailing bytes")));
    }
    EntityTable::from_parts(schema, dicts, columns, rows)
}

fn decode_ratings(bytes: &[u8], meta: &MetaFields) -> Result<RatingTable, StoreError> {
    let mut c = Cursor::new(bytes, "snapshot ratings");
    let reviewers = c.u32_vec()?;
    let items = c.u32_vec()?;
    let mut scores = Vec::with_capacity(meta.dim_names.len());
    for _ in 0..meta.dim_names.len() {
        scores.push(c.u8_vec()?);
    }
    if !c.is_exhausted() {
        return Err(StoreError::corrupt("snapshot ratings: trailing bytes"));
    }
    if reviewers.len() != meta.rating_count {
        return Err(StoreError::corrupt(format!(
            "snapshot ratings: {} records, meta says {}",
            reviewers.len(),
            meta.rating_count
        )));
    }
    RatingTable::from_parts(
        meta.dim_names.clone(),
        meta.scale,
        reviewers,
        items,
        scores,
        meta.reviewer_count,
        meta.item_count,
    )
}

fn decode_cindex(bytes: &[u8], what: &str) -> Result<CompressedIndex, StoreError> {
    let mut c = Cursor::new(bytes, what);
    let rows = c.u64()? as usize;
    let attr_count = c.u16()? as usize;
    let mut containers = Vec::with_capacity(attr_count);
    for _ in 0..attr_count {
        let value_count = c.len_prefix(8)?;
        let mut per_attr = Vec::with_capacity(value_count);
        for _ in 0..value_count {
            per_attr.push(match c.u8()? {
                TAG_ARRAY => Container::Array(c.u32_vec()?),
                TAG_BITMAP => {
                    let card = c.u32()?;
                    Container::Bitmap {
                        words: c.u64_vec()?,
                        card,
                    }
                }
                2 => {
                    return Err(StoreError::format(format!(
                        "{what}: run-list containers (tag 2) not supported"
                    )))
                }
                tag => {
                    return Err(StoreError::corrupt(format!(
                        "{what}: unknown container tag {tag}"
                    )))
                }
            });
        }
        containers.push(per_attr);
    }
    if !c.is_exhausted() {
        return Err(StoreError::corrupt(format!("{what}: trailing bytes")));
    }
    // `from_containers` re-validates every structural invariant (sorted
    // arrays, clear bitmap tails, exact cardinalities), so a
    // damaged-but-CRC-colliding payload still cannot produce a wrong index.
    CompressedIndex::from_containers(containers, rows)
}

// ------------------------------------------------------------------- write

/// Writes `db` as a snapshot at `path` (temp file + atomic rename).
/// `last_seq` records the highest WAL batch sequence already applied to
/// `db`, so replay after reload can skip those frames. Returns the file
/// size in bytes.
pub fn write_snapshot(db: &SubjectiveDb, last_seq: u64, path: &Path) -> Result<u64, StoreError> {
    let sections: [(u16, Vec<u8>); 6] = [
        (SEC_META, encode_meta(db, last_seq)),
        (SEC_REVIEWERS, encode_entity_table(db.reviewers())),
        (SEC_ITEMS, encode_entity_table(db.items())),
        (SEC_RATINGS, encode_ratings(db.ratings())),
        (
            SEC_REVIEWER_CINDEX,
            encode_cindex(db.index(Entity::Reviewer)),
        ),
        (SEC_ITEM_CINDEX, encode_cindex(db.index(Entity::Item))),
    ];
    write_sections(FORMAT_VERSION, &sections, path)
}

/// Streams `sections` to `path` under the framed-and-tabled layout
/// described in the module docs (temp file + fsync + atomic rename +
/// directory fsync).
fn write_sections(
    version: u32,
    sections: &[(u16, Vec<u8>)],
    path: &Path,
) -> Result<u64, StoreError> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    std::fs::create_dir_all(dir).map_err(|e| StoreError::from_io("create snapshot dir", e))?;
    let tmp = dir.join(format!(
        ".{}.tmp-{}",
        path.file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "snapshot".to_owned()),
        std::process::id()
    ));
    let file = File::create(&tmp).map_err(|e| StoreError::from_io("create snapshot temp", e))?;
    let mut w = BufWriter::new(file);

    let mut write = |bytes: &[u8]| -> Result<(), StoreError> {
        w.write_all(bytes)
            .map_err(|e| StoreError::from_io("write snapshot", e))
    };

    write(MAGIC)?;
    write(&version.to_le_bytes())?;
    write(&0u32.to_le_bytes())?; // reserved

    let mut offset = HEADER_LEN as u64;
    let mut table = Vec::new();
    put_u32(&mut table, sections.len() as u32);
    for (id, payload) in sections {
        let crc = crc32(payload);
        let mut frame = Vec::with_capacity(14);
        put_u16(&mut frame, *id);
        put_u64(&mut frame, payload.len() as u64);
        put_u32(&mut frame, crc);
        write(&frame)?;
        write(payload)?;
        put_u16(&mut table, *id);
        put_u64(&mut table, offset + 14); // payload offset
        put_u64(&mut table, payload.len() as u64);
        put_u32(&mut table, crc);
        offset += 14 + payload.len() as u64;
    }

    let table_offset = offset;
    let table_crc = crc32(&table);
    write(&table)?;
    write(&table_offset.to_le_bytes())?;
    write(&table_crc.to_le_bytes())?;
    write(TAIL_MAGIC)?;

    let total = table_offset + table.len() as u64 + FOOTER_LEN as u64;
    let file = w
        .into_inner()
        .map_err(|e| StoreError::io(format!("flush snapshot: {e}")))?;
    file.sync_all()
        .map_err(|e| StoreError::from_io("fsync snapshot", e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| StoreError::from_io("rename snapshot", e))?;
    crate::sync_dir(dir)?;
    Ok(total)
}

// -------------------------------------------------------------------- read

/// Loads a snapshot written by [`write_snapshot`], verifying magic,
/// version, both CRC layers, and the structural invariants of every
/// decoded part.
pub fn read_snapshot(path: &Path) -> Result<(SubjectiveDb, SnapshotMeta), StoreError> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::from_io("read snapshot", e))?;
    let db = decode_snapshot(&bytes)?;
    Ok(db)
}

/// Decodes an in-memory snapshot image (the testable core of
/// [`read_snapshot`]).
pub fn decode_snapshot(bytes: &[u8]) -> Result<(SubjectiveDb, SnapshotMeta), StoreError> {
    if bytes.len() < HEADER_LEN + FOOTER_LEN {
        return Err(StoreError::format("snapshot file too short"));
    }
    if &bytes[..8] != MAGIC {
        return Err(StoreError::format("not a SubDEx snapshot (bad magic)"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(StoreError::format(format!(
            "snapshot format version {version} not supported (reader speaks {FORMAT_VERSION})"
        )));
    }
    let footer = &bytes[bytes.len() - FOOTER_LEN..];
    if &footer[12..] != TAIL_MAGIC {
        return Err(StoreError::corrupt(
            "snapshot footer incomplete (torn write?)",
        ));
    }
    let table_offset = u64::from_le_bytes(footer[..8].try_into().unwrap()) as usize;
    let table_crc = u32::from_le_bytes(footer[8..12].try_into().unwrap());
    if table_offset < HEADER_LEN || table_offset > bytes.len() - FOOTER_LEN {
        return Err(StoreError::corrupt("snapshot section table out of bounds"));
    }
    let table_bytes = &bytes[table_offset..bytes.len() - FOOTER_LEN];
    if crc32(table_bytes) != table_crc {
        return Err(StoreError::corrupt("snapshot section table crc mismatch"));
    }

    let mut c = Cursor::new(table_bytes, "snapshot section table");
    let count = c.u32()? as usize;
    let section = |want: u16| find_section(bytes, table_bytes, count, want);

    // The reviewer table is the largest section (two thirds of the file at
    // Table-2 scale). Verify and decode it on a second thread while this
    // one does every other section; if no thread can be started, decode it
    // here. Whatever ran where, the first error in section order is the
    // one returned, as if the sections were read one after another.
    let decode_reviewers =
        || decode_entity_table(section(SEC_REVIEWERS)?, "snapshot reviewer table");
    let (meta, reviewers, items, ratings, reviewer_index, item_index) =
        std::thread::scope(|s| -> Result<_, StoreError> {
            let worker = std::thread::Builder::new().spawn_scoped(s, decode_reviewers);
            let meta = decode_meta(section(SEC_META)?)?;
            let items = section(SEC_ITEMS)
                .and_then(|payload| decode_entity_table(payload, "snapshot item table"));
            let ratings = section(SEC_RATINGS).and_then(|payload| decode_ratings(payload, &meta));
            let reviewer_index = section(SEC_REVIEWER_CINDEX)
                .and_then(|payload| decode_cindex(payload, "snapshot reviewer containers"));
            let item_index = section(SEC_ITEM_CINDEX)
                .and_then(|payload| decode_cindex(payload, "snapshot item containers"));
            let reviewers = match worker {
                Ok(handle) => handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                Err(_) => decode_reviewers(),
            }?;
            Ok((meta, reviewers, items?, ratings, reviewer_index, item_index))
        })?;
    if reviewers.len() != meta.reviewer_count || items.len() != meta.item_count {
        return Err(StoreError::corrupt(
            "snapshot entity tables disagree with meta counts",
        ));
    }
    let ratings = ratings?;
    let reviewer_index = reviewer_index?;
    verify_cindex_matches(&reviewer_index, &reviewers, "reviewer")?;
    let item_index = item_index?;
    verify_cindex_matches(&item_index, &items, "item")?;

    let db = SubjectiveDb::from_parts(
        reviewers,
        items,
        ratings,
        reviewer_index,
        item_index,
        meta.epoch,
    )?;
    Ok((
        db,
        SnapshotMeta {
            epoch: meta.epoch,
            last_seq: meta.last_seq,
            bytes: bytes.len() as u64,
        },
    ))
}

/// Locates section `want` via the table, verifying bounds and payload CRC;
/// a section the table does not list is corrupt.
fn find_section<'a>(
    bytes: &'a [u8],
    table_bytes: &[u8],
    count: usize,
    want: u16,
) -> Result<&'a [u8], StoreError> {
    let mut c = Cursor::new(table_bytes, "snapshot section table");
    let _ = c.u32()?;
    for _ in 0..count {
        let id = c.u16()?;
        let offset = c.u64()? as usize;
        let len = c.u64()? as usize;
        let crc = c.u32()?;
        if id != want {
            continue;
        }
        let end = offset
            .checked_add(len)
            .ok_or_else(|| StoreError::corrupt("snapshot section offset overflow"))?;
        if offset < HEADER_LEN + 14 || end > bytes.len() - FOOTER_LEN {
            return Err(StoreError::corrupt(format!(
                "snapshot section {want} out of bounds"
            )));
        }
        // The streaming writer frames each payload inline as
        // `id · len · crc`; cross-check it against the table entry so the
        // two framings cannot silently disagree.
        let mut frame = Vec::with_capacity(14);
        crate::codec::put_u16(&mut frame, id);
        crate::codec::put_u64(&mut frame, len as u64);
        crate::codec::put_u32(&mut frame, crc);
        if &bytes[offset - 14..offset] != frame.as_slice() {
            return Err(StoreError::corrupt(format!(
                "snapshot section {want}: inline frame disagrees with table"
            )));
        }
        let payload = &bytes[offset..end];
        if crc32(payload) != crc {
            return Err(StoreError::corrupt(format!(
                "snapshot section {want}: crc mismatch"
            )));
        }
        return Ok(payload);
    }
    Err(StoreError::corrupt(format!(
        "snapshot section {want} missing"
    )))
}

/// The persisted compressed index must cover exactly the rows, attributes
/// and dictionary sizes of its table — a sneaky mismatch would let stale
/// containers answer selections for the wrong values.
fn verify_cindex_matches(
    index: &CompressedIndex,
    table: &EntityTable,
    what: &str,
) -> Result<(), StoreError> {
    if index.rows() != table.len() {
        return Err(StoreError::corrupt(format!(
            "snapshot {what} containers cover {} rows, table has {}",
            index.rows(),
            table.len()
        )));
    }
    if index.containers().len() != table.schema().len() {
        return Err(StoreError::corrupt(format!(
            "snapshot {what} containers cover {} attributes, table has {}",
            index.containers().len(),
            table.schema().len()
        )));
    }
    for attr in table.schema().attr_ids() {
        if index.value_count(attr) != table.dictionary(attr).len() {
            return Err(StoreError::corrupt(format!(
                "snapshot {what} containers for attribute {} cover {} values, dictionary has {}",
                attr.index(),
                index.value_count(attr),
                table.dictionary(attr).len()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use subdex_store::{
        Cell, Entity, EntityTableBuilder, RatingTableBuilder, SelectionQuery, Value,
    };

    fn small_db() -> SubjectiveDb {
        let mut us = Schema::new();
        us.add("gender", false);
        us.add("age_group", false);
        let mut ub = EntityTableBuilder::new(us);
        ub.push_row(vec!["F".into(), "Young".into()]);
        ub.push_row(vec!["M".into(), "Young".into()]);
        ub.push_row(vec!["F".into(), "Middle Aged".into()]);

        let mut is = Schema::new();
        is.add("cuisine", true);
        is.add("city", false);
        let mut ib = EntityTableBuilder::new(is);
        ib.push_row(vec![
            Cell::Many(vec![Value::str("Pizza"), Value::str("Italian")]),
            "NYC".into(),
        ]);
        ib.push_row(vec![Cell::Many(vec![Value::str("Sushi")]), "Austin".into()]);

        let mut rb = RatingTableBuilder::new(vec!["overall".into(), "food".into()], 5);
        rb.push(0, 0, &[4, 5]);
        rb.push(1, 0, &[3, 3]);
        rb.push(1, 1, &[5, 4]);
        rb.push(2, 1, &[2, 1]);
        SubjectiveDb::new(ub.build(), ib.build(), rb.build(3, 2))
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("subdex-snap-{tag}-{}.sdx", std::process::id()))
    }

    #[test]
    fn round_trip_preserves_everything() {
        let db = small_db();
        let path = temp_path("rt");
        let bytes = write_snapshot(&db, 7, &path).unwrap();
        let (loaded, meta) = read_snapshot(&path).unwrap();
        assert_eq!(meta.bytes, bytes);
        assert_eq!(meta.last_seq, 7);
        assert_eq!(meta.epoch, 0);
        assert_eq!(loaded.stats(), db.stats());
        // Queries answer identically (postings were persisted, not rebuilt).
        let q = SelectionQuery::from_preds(vec![db
            .pred(Entity::Reviewer, "age_group", &Value::str("Young"))
            .unwrap()]);
        assert_eq!(
            loaded.collect_group_records(&q),
            db.collect_group_records(&q)
        );
        // Container classes survive the round trip exactly: the persisted
        // index is the in-memory one, not a re-derived approximation.
        let (ls, ds) = (loaded.index_stats(), db.index_stats());
        assert_eq!(
            (ls.array_containers, ls.bitmap_containers),
            (ds.array_containers, ds.bitmap_containers)
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Pins the v2 byte format: the length and CRC-32 of `small_db`'s
    /// snapshot. A change to either is a new format and needs a new
    /// `FORMAT_VERSION`.
    #[test]
    fn small_db_snapshot_bytes_are_pinned() {
        let path = temp_path("golden");
        let len = write_snapshot(&small_db(), 0, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!((len, bytes.len()), (854, 854));
        assert_eq!(crc32(&bytes), 0x165f_46ce);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_container_section_is_corrupt() {
        let db = small_db();
        let path = temp_path("missing");
        // Every section but the item containers.
        let sections = [
            (SEC_META, encode_meta(&db, 0)),
            (SEC_REVIEWERS, encode_entity_table(db.reviewers())),
            (SEC_ITEMS, encode_entity_table(db.items())),
            (SEC_RATINGS, encode_ratings(db.ratings())),
            (
                SEC_REVIEWER_CINDEX,
                encode_cindex(db.index(Entity::Reviewer)),
            ),
        ];
        write_sections(FORMAT_VERSION, &sections, &path).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert_eq!(err.kind, subdex_store::StoreErrorKind::Corrupt, "{err}");
        assert!(err.context.contains("missing"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_container_tag_is_a_format_error() {
        let db = small_db();
        let path = temp_path("tag2");
        // rows u64 · attr count u16 · first attribute's value count u64,
        // then the first container's tag.
        let mut reviewers = encode_cindex(db.index(Entity::Reviewer));
        assert_eq!(reviewers[18], TAG_ARRAY);
        reviewers[18] = 2;
        let sections = [
            (SEC_META, encode_meta(&db, 0)),
            (SEC_REVIEWERS, encode_entity_table(db.reviewers())),
            (SEC_ITEMS, encode_entity_table(db.items())),
            (SEC_RATINGS, encode_ratings(db.ratings())),
            (SEC_REVIEWER_CINDEX, reviewers),
            (SEC_ITEM_CINDEX, encode_cindex(db.index(Entity::Item))),
        ];
        write_sections(FORMAT_VERSION, &sections, &path).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert_eq!(err.kind, subdex_store::StoreErrorKind::Format, "{err}");
        assert!(err.context.contains("tag 2"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_magic_is_a_format_error() {
        let db = small_db();
        let path = temp_path("magic");
        write_snapshot(&db, 0, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        let err = decode_snapshot(&bytes).unwrap_err();
        assert_eq!(err.kind, subdex_store::StoreErrorKind::Format);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn future_version_is_rejected() {
        let db = small_db();
        let path = temp_path("ver");
        write_snapshot(&db, 0, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Format 1 (flat posting lists) is no longer read either.
        for version in [0xEE, 1] {
            bytes[8] = version;
            let err = decode_snapshot(&bytes).unwrap_err();
            assert_eq!(err.kind, subdex_store::StoreErrorKind::Format, "{err}");
            assert!(err.context.contains("version"), "{err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_is_detected() {
        let db = small_db();
        let path = temp_path("trunc");
        write_snapshot(&db, 0, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [bytes.len() - 1, bytes.len() / 2, HEADER_LEN + 3, 5] {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "truncation at {cut} must not load"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn payload_corruption_is_detected() {
        let db = small_db();
        let path = temp_path("crc");
        write_snapshot(&db, 0, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Flip one byte somewhere in the middle of the payload region.
        let mut damaged = bytes.clone();
        let target = bytes.len() / 2;
        damaged[target] ^= 0x01;
        assert!(decode_snapshot(&damaged).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
