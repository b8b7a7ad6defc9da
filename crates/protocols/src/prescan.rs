//! The scalar framing oracle: stateless header checks for every built-in
//! wire framing.
//!
//! Each [`FrameSpec`] names one framing the six targets speak, and
//! [`FrameSpec::check`] tests a packet's start bytes, declared-vs-actual
//! length and (for DNP3) link-header CRC. Nothing on the campaign path
//! calls it: it is the judge the property tests hold the decoders and the
//! TPKT framer against (`tests/prescan_framing.rs`,
//! `tests/wire_framing.rs`).
//!
//! # Contract with the decoders
//!
//! A verdict is one-directional: `false` means the target's decoder is
//! guaranteed to reject the packet as a protocol error *from any state*;
//! `true` promises nothing (stateful checks still run in the decoder).

use peachstar_datamodel::checksum::crc16_dnp;

/// The wire framings of the six built-in targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameSpec {
    /// Modbus/TCP MBAP: protocol id 0, declared length, unit id 0/1.
    Mbap,
    /// IEC 60870-5-104 APCI (shared by the iec104 and lib60870 targets):
    /// 0x68 start byte and a declared length covering the whole APDU.
    Apci,
    /// DNP3 link layer: 0x05 0x64 sync, length field, header CRC.
    Dnp3Link,
    /// ICCP/TASE.2 transport header: "T2" magic and declared payload length.
    Iccp,
    /// TPKT + COTP data TPDU (IEC 61850 MMS transport): TPKT version/length
    /// and a COTP DT header.
    TpktCotp,
}

impl FrameSpec {
    /// `true` when `packet`'s framing passes every stateless header check
    /// of this spec.
    #[must_use]
    pub fn check(self, packet: &[u8]) -> bool {
        let len = packet.len();
        match self {
            FrameSpec::Mbap => {
                len >= 8
                    && packet[2] == 0
                    && packet[3] == 0
                    && usize::from(u16::from_be_bytes([packet[4], packet[5]])) + 6 == len
                    && packet[6] <= 1
            }
            FrameSpec::Apci => {
                len >= 6 && packet[0] == 0x68 && packet[1] >= 4 && usize::from(packet[1]) + 2 == len
            }
            FrameSpec::Dnp3Link => {
                len >= 10
                    && packet[0] == 0x05
                    && packet[1] == 0x64
                    && packet[2] >= 5
                    && crc16_dnp(&packet[..8]) == u16::from_le_bytes([packet[8], packet[9]])
            }
            FrameSpec::Iccp => {
                len >= 5
                    && packet[0] == 0x54
                    && packet[1] == 0x32
                    && usize::from(u16::from_be_bytes([packet[3], packet[4]])) + 5 == len
            }
            FrameSpec::TpktCotp => {
                len >= 7
                    && packet[0] == 0x03
                    && packet[1] == 0x00
                    && usize::from(u16::from_be_bytes([packet[2], packet[3]])) == len
                    && packet[4] >= 2
                    && usize::from(packet[4]) + 5 <= len
                    && packet[5] == 0xF0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPECS: [FrameSpec; 5] = [
        FrameSpec::Mbap,
        FrameSpec::Apci,
        FrameSpec::Dnp3Link,
        FrameSpec::Iccp,
        FrameSpec::TpktCotp,
    ];

    #[test]
    fn known_good_frames_pass_their_spec() {
        // Modbus read-holding-registers request.
        assert!(FrameSpec::Mbap
            .check(&[0x00, 0x01, 0x00, 0x00, 0x00, 0x06, 0x01, 0x03, 0x00, 0x00, 0x00, 0x02]));
        // IEC 104 STARTDT act.
        assert!(FrameSpec::Apci.check(&[0x68, 0x04, 0x07, 0x00, 0x00, 0x00]));
        // DNP3 link header with a correct CRC.
        let mut dnp = vec![0x05, 0x64, 0x05, 0xC0, 0x01, 0x00, 0x00, 0x04];
        let crc = crc16_dnp(&dnp);
        dnp.extend_from_slice(&crc.to_le_bytes());
        assert!(FrameSpec::Dnp3Link.check(&dnp));
        // ICCP header with a 1-byte payload.
        assert!(FrameSpec::Iccp.check(&[0x54, 0x32, 0x01, 0x00, 0x01, 0xAA]));
        // TPKT + COTP DT with an empty MMS payload.
        assert!(FrameSpec::TpktCotp.check(&[0x03, 0x00, 0x00, 0x07, 0x02, 0xF0, 0x80]));
    }

    #[test]
    fn broken_framing_fails_its_spec() {
        for spec in SPECS {
            assert!(!spec.check(&[]), "{spec:?}: empty");
            assert!(!spec.check(&[0xFF; 3]), "{spec:?}: short garbage");
            assert!(!spec.check(&[0x00; 64]), "{spec:?}: zero-filled");
        }
        // Declared-length mismatches.
        assert!(!FrameSpec::Apci.check(&[0x68, 0x05, 0x07, 0x00, 0x00, 0x00]));
        assert!(!FrameSpec::Iccp.check(&[0x54, 0x32, 0x01, 0x00, 0x09, 0xAA]));
        // A flipped CRC bit.
        let mut dnp = vec![0x05, 0x64, 0x05, 0xC0, 0x01, 0x00, 0x00, 0x04];
        let crc = crc16_dnp(&dnp) ^ 1;
        dnp.extend_from_slice(&crc.to_le_bytes());
        assert!(!FrameSpec::Dnp3Link.check(&dnp));
    }

}
