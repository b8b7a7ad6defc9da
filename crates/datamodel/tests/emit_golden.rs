//! Golden emitter output: pins the exact bytes `emit_values` produces for
//! assignments that exercise every normalisation rule and every repair.
//!
//! The expected bytes were captured from the recursive tree emitter before it
//! was replaced by the one-pass leaf emitter. The model covers wrong-width
//! numbers (short, long, longer than eight bytes, both endiannesses), short
//! and long content for fixed-length bytes and strings, relations and fixups
//! over blocks and over adjacent fields, and a choice whose later (never
//! emitted) option carries a relation, a relation target and a fixup
//! target.

use peachstar_datamodel::emit::{emit_values, ValueAssignment};
use peachstar_datamodel::pit::parse_pit;
use peachstar_datamodel::DataModel;

/// `ghost_len` measures `b_data`, which only exists in the second choice
/// option; that option is never emitted, so the relation is never repaired.
const GOLDEN_PIT: &str = "\
model golden
  number magic width=2 default=0x0564
  number wide width=4 default=0x01020304
  number narrow width=1 default=0x7f
  number little width=4 endian=le default=0xa1b2c3d4
  number len width=2 endian=le sizeof=body
  number ghost_len width=1 default=0x33 sizeof=b_data
  choice body
    block opt_a
      bytes tag length=4 default=01020304
      string name length=6 default=ab
      bytes tail remainder default=0909
    block opt_b
      number b_len width=1 sizeof=b_data
      bytes b_data lengthfrom=b_len
      number b_crc width=2 crc16modbus=b_data
  number crc width=4 crc32=len,body,b_data
  number dnp width=2 endian=le crc16dnp=tag
  number sum width=1 sum8=magic,wide,crc
";

fn golden_model() -> DataModel {
    parse_pit("golden", GOLDEN_PIT).expect("valid pit").models()[0].clone()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|byte| format!("{byte:02x}")).collect()
}

/// Linear positions: magic 0, wide 1, narrow 2, little 3, len 4,
/// ghost_len 5, tag 6, name 7, tail 8, crc 9, dnp 10, sum 11.
fn assignments() -> Vec<ValueAssignment> {
    let defaults = ValueAssignment::new();
    let wrong_widths: ValueAssignment = [
        (1, vec![0x12]),
        (2, vec![0xaa, 0xbb, 0xcc]),
        (3, (1..=10).collect()),
        (4, vec![]),
        (5, vec![0x77, 0x88]),
        (6, vec![7]),
        (7, b"abcdefghij".to_vec()),
        (8, vec![0xde, 0xad, 0xbe]),
        (9, vec![0; 5]),
        (11, vec![0x55]),
    ]
    .into_iter()
    .collect();
    let long_blobs: ValueAssignment = [
        (0, vec![0xff; 9]),
        (6, (1..=10).collect()),
        (7, b"x".to_vec()),
        (8, vec![]),
        (10, vec![0x01]),
    ]
    .into_iter()
    .collect();
    vec![defaults, wrong_widths, long_blobs]
}

/// `(repaired, verbatim)` hex per entry of [`assignments`].
const GOLDEN: [(&str, &str); 3] = [
    (
        "0564010203047fd4c3b2a10c00330102030461622020202009097838caa3b46790",
        "0564010203047fd4c3b2a100003301020304616220202020090900000000000000",
    ),
    (
        "056400000012cc010203040d008807000000616263646566deadbe59bb4a5195292a",
        "056400000012cc0102030400008807000000616263646566deadbe00000000000055",
    ),
    (
        "ffff010203047fd4c3b2a10a0033010203047820202020203a33035ab467d2",
        "ffff010203047fd4c3b2a10000330102030478202020202000000000010000",
    ),
];

#[test]
fn emitted_bytes_match_the_golden_output() {
    let model = golden_model();
    for (index, (assignment, (repaired, verbatim))) in
        assignments().iter().zip(GOLDEN).enumerate()
    {
        let got_repaired = hex(&emit_values(&model, assignment, true).unwrap());
        let got_verbatim = hex(&emit_values(&model, assignment, false).unwrap());
        assert_eq!(got_repaired, repaired, "assignment {index}, repaired");
        assert_eq!(got_verbatim, verbatim, "assignment {index}, verbatim");
    }
}
