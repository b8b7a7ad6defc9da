//! Packet emission: serialising a data model's instantiation to bytes and
//! re-establishing integrity constraints (the "File Fixup" of the paper).

use std::sync::Arc;

use crate::chunk::ChunkKind;
use crate::error::ModelError;
use crate::instree::{InsNode, InsTree};
use crate::model::{DataModel, LinearChunk, LinearLayout};
use crate::types::LengthSpec;

/// A leaf-value assignment for emission: raw bytes per leaf position of the
/// model's [`LinearLayout`], in packet order.
///
/// Values are stored as `Arc<[u8]>`, so cloning an assignment (the
/// semantic-aware generator's cross-product expansion does this per
/// candidate packet) bumps reference counts instead of deep-copying byte
/// vectors, and corpus donors can be shared into assignments without
/// copying.
///
/// Missing positions fall back to the leaf's default value; number values of
/// the wrong width are left-truncated or zero-padded to the field width.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValueAssignment {
    values: std::collections::HashMap<usize, Arc<[u8]>>,
}

impl ValueAssignment {
    /// Creates an empty assignment (all defaults).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the bytes for the leaf at linear position `index`.
    ///
    /// Accepts owned `Vec<u8>` (converted once) or a shared `Arc<[u8]>`
    /// (no copy — this is how corpus donors are threaded through).
    pub fn set(&mut self, index: usize, bytes: impl Into<Arc<[u8]>>) {
        self.values.insert(index, bytes.into());
    }

    /// Returns the bytes assigned to position `index`, if any.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&[u8]> {
        self.values.get(&index).map(AsRef::as_ref)
    }

    /// Number of explicitly assigned positions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when nothing has been assigned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The smallest assigned position `>= leaves`, if any — emission rejects
    /// such assignments with [`ModelError::ValueIndexOutOfRange`].
    fn index_beyond(&self, leaves: usize) -> Option<usize> {
        self.values
            .keys()
            .copied()
            .filter(|&index| index >= leaves)
            .min()
    }
}

impl FromIterator<(usize, Vec<u8>)> for ValueAssignment {
    fn from_iter<T: IntoIterator<Item = (usize, Vec<u8>)>>(iter: T) -> Self {
        Self {
            values: iter
                .into_iter()
                .map(|(index, bytes)| (index, Arc::from(bytes)))
                .collect(),
        }
    }
}

/// Reusable emission workspace: the leaf-boundary table, the checksum
/// buffers and the longest packet length seen.
///
/// One packet emission records where every leaf starts and ends, plus a
/// scratch buffer to concatenate fixup-covered ranges. Allocating those per
/// packet dominates the cost of emitting small ICS frames, so the generation
/// strategies hold one `EmitScratch` and pass it to [`emit_with`] or
/// [`emit_values_with`] for every packet.
#[derive(Debug, Clone, Default)]
pub struct EmitScratch {
    /// Leaf boundaries of the packet being emitted: leaf `i` of the model's
    /// [`LinearLayout`] occupies bytes `bounds[i]..bounds[i + 1]`.
    bounds: Vec<usize>,
    /// Concatenation of the leaf ranges a fixup covers.
    covered: Vec<u8>,
    /// Encoding buffer for repaired relation/fixup fields.
    encoded: Vec<u8>,
    /// Length of the longest packet emitted so far: a fresh output buffer
    /// reserves this much up front instead of regrowing leaf by leaf.
    longest: usize,
}

impl EmitScratch {
    /// Creates an empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Emits the model's default instantiation with all relations and fixups
/// applied.
///
/// # Errors
///
/// Returns [`ModelError::ValueIndexOutOfRange`] only if the model is
/// internally inconsistent (cannot happen for validated models).
///
/// ```
/// use peachstar_datamodel::{examples, emit::emit_default};
/// let packet = emit_default(&examples::figure1_model())?;
/// assert!(!packet.is_empty());
/// # Ok::<(), peachstar_datamodel::ModelError>(())
/// ```
pub fn emit_default(model: &DataModel) -> Result<Vec<u8>, ModelError> {
    emit_values(model, &ValueAssignment::new(), true)
}

/// Emits the model with the given leaf-value assignment.
///
/// When `repair` is `true`, relation fields (sizes, counts) and fixup fields
/// (checksums) are recomputed after the raw bytes are laid out — this is the
/// File Fixup module of Peach\*. When `false`, the assigned/default bytes are
/// emitted verbatim, which is how the ablation without repair is run.
///
/// # Errors
///
/// Returns [`ModelError::ValueIndexOutOfRange`] when the assignment refers to
/// a position beyond the linear model.
pub fn emit_values(
    model: &DataModel,
    assignment: &ValueAssignment,
    repair: bool,
) -> Result<Vec<u8>, ModelError> {
    emit_values_with(model, assignment, repair, &mut EmitScratch::new())
}

/// [`emit_values`] with a caller-provided [`EmitScratch`], so repeated
/// emissions reuse the leaf-boundary table and checksum buffer instead of
/// reallocating them.
///
/// # Errors
///
/// Returns [`ModelError::ValueIndexOutOfRange`] when the assignment refers to
/// a position beyond the linear model.
pub fn emit_values_with(
    model: &DataModel,
    assignment: &ValueAssignment,
    repair: bool,
    scratch: &mut EmitScratch,
) -> Result<Vec<u8>, ModelError> {
    let leaves = model.linear().len();
    if let Some(index) = assignment.index_beyond(leaves) {
        return Err(ModelError::ValueIndexOutOfRange { index, leaves });
    }
    let mut bytes = Vec::new();
    emit_with(model, repair, scratch, &mut bytes, |index, _, out| {
        assignment
            .get(index)
            .map(|content| out.extend_from_slice(content))
            .is_some()
    });
    Ok(bytes)
}

/// Emits the model in one pass over its leaves into `out` (cleared first),
/// taking each leaf's content from `fill`, then applies File Fixup when
/// `repair` is `true`.
///
/// For every leaf of the model's [`LinearLayout`], in packet order,
/// `fill(index, leaf, out)` either appends the leaf's content to `out` and
/// returns `true`, or appends nothing and returns `false` to emit the leaf's
/// default. Content is normalised as it lands: a number is re-encoded to the
/// field width (content is wire bytes in the field's own endianness; short
/// content is zero-extended, long content keeps its least significant
/// bytes), and fixed-length bytes and strings are padded with zeros or
/// spaces, or cut, to their length.
///
/// Generation uses this to write each leaf straight into the packet. With a
/// reused `out` and [`EmitScratch`], emitting allocates nothing once the
/// buffers have warmed up.
///
/// ```
/// use peachstar_datamodel::emit::{emit_default, emit_with, EmitScratch};
/// use peachstar_datamodel::examples::figure1_model;
///
/// let model = figure1_model();
/// let mut packet = Vec::new();
/// emit_with(&model, true, &mut EmitScratch::new(), &mut packet, |_, _, _| false);
/// assert_eq!(packet, emit_default(&model)?);
/// # Ok::<(), peachstar_datamodel::ModelError>(())
/// ```
pub fn emit_with<F>(
    model: &DataModel,
    repair: bool,
    scratch: &mut EmitScratch,
    out: &mut Vec<u8>,
    mut fill: F,
) where
    F: FnMut(usize, &LinearChunk, &mut Vec<u8>) -> bool,
{
    let layout = model.linear();
    out.clear();
    out.reserve(scratch.longest);
    scratch.bounds.clear();
    scratch.bounds.push(0);
    for (index, leaf) in layout.iter().enumerate() {
        let start = out.len();
        let filled = fill(index, leaf, out);
        match &leaf.chunk.kind {
            ChunkKind::Number(spec) => {
                let value = if filled {
                    let value = spec.decode_lossy(&out[start..]);
                    out.truncate(start);
                    value
                } else {
                    spec.default
                };
                spec.encode_into(value, out);
            }
            ChunkKind::Bytes(spec) => {
                if !filled {
                    out.extend_from_slice(&spec.default);
                }
                if let LengthSpec::Fixed(len) = spec.length {
                    out.resize(start + len, 0);
                }
            }
            ChunkKind::Str(spec) => {
                if !filled {
                    out.extend_from_slice(spec.default.as_bytes());
                }
                if let LengthSpec::Fixed(len) = spec.length {
                    out.resize(start + len, b' ');
                }
            }
            // A linear layout holds leaves only.
            ChunkKind::Block(_) | ChunkKind::Choice(_) => {}
        }
        scratch.bounds.push(out.len());
    }
    scratch.longest = scratch.longest.max(out.len());
    if repair {
        repair_in_place(layout, scratch, out);
    }
}

/// Re-emits an instantiation tree, optionally repairing relations and fixups.
///
/// The tree's leaf bytes are used as the assignment; structural nodes are
/// ignored (their content is recomputed by concatenation). This is used by
/// the fuzzer to repair a packet assembled from donated puzzles.
///
/// # Errors
///
/// Returns an error if the tree does not structurally correspond to the
/// model (e.g. it was cracked against a different model).
pub fn emit_tree(model: &DataModel, tree: &InsTree, repair: bool) -> Result<Vec<u8>, ModelError> {
    let linear = model.linear();
    let mut assignment = ValueAssignment::new();
    let mut flat = Vec::new();
    flatten_leaves(&tree.root, &mut flat);
    for (index, leaf) in linear.iter().enumerate() {
        if let Some(node) = flat.iter().find(|node| node.name == leaf.chunk.name) {
            assignment.set(index, node.content.clone());
        }
    }
    emit_values(model, &assignment, repair)
}

fn flatten_leaves<'tree>(node: &'tree InsNode, out: &mut Vec<&'tree InsNode>) {
    if node.is_leaf() {
        out.push(node);
    } else {
        for child in &node.children {
            flatten_leaves(child, out);
        }
    }
}

/// Recomputes relation fields first and fixup fields second, overwriting
/// their emitted bytes in place.
///
/// Both passes walk the layout's *precompiled* repair plans (built once per
/// model, against leaf positions), so the per-packet work is exactly the
/// repairs themselves: a chunk's bytes are the span between two entries of
/// the leaf-boundary table.
fn repair_in_place(layout: &LinearLayout, scratch: &mut EmitScratch, bytes: &mut [u8]) {
    let EmitScratch {
        bounds,
        covered,
        encoded,
        ..
    } = scratch;
    let span = |(first, end): (usize, usize)| bounds[first]..bounds[end];
    // Pass 1: relations (sizes and counts).
    for repair in layout.relation_repairs() {
        let relation = repair
            .spec
            .relation
            .as_ref()
            .expect("precompiled from a relation field");
        let value = relation.value_for_size(span(repair.target).len());
        encoded.clear();
        repair
            .spec
            .encode_into(value & repair.spec.width.max_value(), encoded);
        bytes[span((repair.own, repair.own + 1))].copy_from_slice(encoded);
    }
    // Pass 2: fixups (checksums), computed over the repaired bytes.
    for repair in layout.fixup_repairs() {
        let fixup = repair
            .spec
            .fixup
            .as_ref()
            .expect("precompiled from a fixup field");
        covered.clear();
        for &range in &repair.over {
            covered.extend_from_slice(&bytes[span(range)]);
        }
        let value = fixup.kind.compute(covered);
        encoded.clear();
        repair
            .spec
            .encode_into(value & repair.spec.width.max_value(), encoded);
        bytes[span((repair.own, repair.own + 1))].copy_from_slice(encoded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DataModelBuilder;
    use crate::chunk::{BytesSpec, NumberSpec};
    use crate::crack::crack;
    use crate::types::{Endianness, Fixup, Relation};

    fn framed_model() -> DataModel {
        DataModelBuilder::new("framed")
            .number("magic", NumberSpec::u8().fixed_value(0x7e))
            .number(
                "len",
                NumberSpec::u16_be().relation(Relation::size_of("payload")),
            )
            .bytes("payload", BytesSpec::length_from("len").default_content(vec![1, 2, 3]))
            .number("crc", NumberSpec::u32_be().fixup(Fixup::crc32("payload")))
            .build()
            .unwrap()
    }

    #[test]
    fn default_emission_is_consistent() {
        let model = framed_model();
        let packet = emit_default(&model).unwrap();
        // magic, len(=3), payload(3), crc.
        assert_eq!(packet.len(), 1 + 2 + 3 + 4);
        assert_eq!(packet[0], 0x7e);
        assert_eq!(&packet[1..3], &[0x00, 0x03]);
        let crc = crate::checksum::crc32(&[1, 2, 3]);
        assert_eq!(&packet[6..10], &crc.to_be_bytes());
    }

    #[test]
    fn emission_then_crack_roundtrips() {
        let model = framed_model();
        let packet = emit_default(&model).unwrap();
        let tree = crack(&model, &packet).unwrap();
        assert_eq!(tree.bytes(), &packet[..]);
        let re_emitted = emit_tree(&model, &tree, true).unwrap();
        assert_eq!(re_emitted, packet);
    }

    #[test]
    fn repair_recomputes_length_after_payload_change() {
        let model = framed_model();
        let mut assignment = ValueAssignment::new();
        // Linear order: magic(0), len(1), payload(2), crc(3).
        assignment.set(2, vec![0xAB; 10]);
        let packet = emit_values(&model, &assignment, true).unwrap();
        assert_eq!(&packet[1..3], &[0x00, 0x0A], "length repaired to 10");
        let crc = crate::checksum::crc32(&[0xAB; 10]);
        assert_eq!(&packet[13..17], &crc.to_be_bytes());
    }

    #[test]
    fn without_repair_constraints_stay_broken() {
        let model = framed_model();
        let mut assignment = ValueAssignment::new();
        assignment.set(1, vec![0xFF, 0xFF]); // bogus length
        assignment.set(2, vec![0x01]);
        let packet = emit_values(&model, &assignment, false).unwrap();
        assert_eq!(&packet[1..3], &[0xFF, 0xFF]);
    }

    #[test]
    fn number_values_are_normalised_to_width() {
        let model = DataModelBuilder::new("norm")
            .number("wide", NumberSpec::u32_be())
            .number("narrow", NumberSpec::u8())
            .number("little", NumberSpec::u16_be().endian(Endianness::Little))
            .build()
            .unwrap();
        let mut assignment = ValueAssignment::new();
        assignment.set(0, vec![0x12]); // too short → zero-padded
        assignment.set(1, vec![0xAA, 0xBB]); // too long → least-significant kept
        assignment.set(2, vec![0x12, 0x34]); // correctly sized wire bytes → verbatim
        let packet = emit_values(&model, &assignment, false).unwrap();
        assert_eq!(&packet[0..4], &[0x00, 0x00, 0x00, 0x12]);
        assert_eq!(packet[4], 0xBB);
        assert_eq!(&packet[5..7], &[0x12, 0x34]);
    }

    #[test]
    fn fixed_blob_is_padded_or_truncated() {
        let model = DataModelBuilder::new("fixed")
            .bytes("body", BytesSpec::fixed(4))
            .build()
            .unwrap();
        let mut short = ValueAssignment::new();
        short.set(0, vec![0x01]);
        assert_eq!(emit_values(&model, &short, false).unwrap(), vec![0x01, 0, 0, 0]);

        let mut long = ValueAssignment::new();
        long.set(0, vec![9; 10]);
        assert_eq!(emit_values(&model, &long, false).unwrap().len(), 4);
    }

    #[test]
    fn out_of_range_assignment_is_rejected() {
        let model = DataModelBuilder::new("tiny")
            .number("only", NumberSpec::u8())
            .build()
            .unwrap();
        let mut assignment = ValueAssignment::new();
        assignment.set(5, vec![0x01]);
        assert!(matches!(
            emit_values(&model, &assignment, true),
            Err(ModelError::ValueIndexOutOfRange { .. })
        ));
    }

    #[test]
    fn multi_field_fixup_covers_all_targets() {
        let model = DataModelBuilder::new("multi")
            .number("a", NumberSpec::u8().default_value(0x11))
            .number("b", NumberSpec::u8().default_value(0x22))
            .number(
                "sum",
                NumberSpec::u8().fixup(Fixup::new(
                    crate::types::ChecksumKind::Sum8,
                    vec!["a".into(), "b".into()],
                )),
            )
            .build()
            .unwrap();
        let packet = emit_default(&model).unwrap();
        assert_eq!(packet[2], 0x33);
    }
}
