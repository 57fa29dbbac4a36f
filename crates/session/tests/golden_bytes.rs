//! Golden wire bytes: the exact RFC 4271 encoding of one message per
//! framing path — OPEN capabilities with AS_TRANS, short and
//! extended-length AS_PATH attributes, NO_EXPORT + MED, withdrawals, NLRI
//! lists, NOTIFICATION data and KEEPALIVE. A change to any length field,
//! flag, segment split or attribute order fails here, even if it round-trips.

use bobw_net::{Asn, Prefix};
use bobw_session::{
    encode, BgpMessage, Capability, NotificationMsg, OpenMsg, UpdateAttrs, UpdateMsg, CEASE,
};

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn update(withdrawn: &[&str], attrs: Option<UpdateAttrs>, nlri: &[&str]) -> BgpMessage {
    BgpMessage::Update(UpdateMsg {
        withdrawn: withdrawn.iter().map(|s| p(s)).collect(),
        attrs,
        nlri: nlri.iter().map(|s| p(s)).collect(),
    })
}

fn attrs(hops: impl IntoIterator<Item = u32>, med: u32, no_export: bool) -> Option<UpdateAttrs> {
    Some(UpdateAttrs {
        as_path: hops.into_iter().map(Asn).collect(),
        med,
        origin_node: 7,
        no_export,
    })
}

/// `(name, message, expected hex)`; whitespace in the hex is ignored.
fn cases() -> Vec<(&'static str, BgpMessage, &'static str)> {
    vec![
        (
            "open-as4-gr-unknown",
            BgpMessage::Open(OpenMsg {
                asn: 4_200_001_234,
                hold_time_s: 90,
                bgp_id: 17,
                caps: vec![
                    Capability::FourOctetAs { asn: 4_200_001_234 },
                    Capability::GracefulRestart {
                        restart_time_s: 120,
                    },
                    Capability::Unknown {
                        code: 70,
                        data: vec![1, 2, 3],
                    },
                ],
            }),
            "ffffffffffffffffffffffffffffffff003201045ba0005a0000001115020641
             04fa56eed202044002007802054603010203",
        ),
        (
            "update-3-hops",
            update(
                &[],
                attrs([65_001, 3_356, 47_065], 0, false),
                &["184.164.244.0/24"],
            ),
            "ffffffffffffffffffffffffffffffff003e02000000234001010040020e0203
             0000fde900000d1c0000b7d980040400000000c0f0040000000718b8a4f4",
        ),
        (
            "update-300-hops",
            update(&[], attrs(64_512..64_812, 0, false), &["184.164.244.0/24"]),
            "ffffffffffffffffffffffffffffffff04e502000004ca40010100500204b402
             ff0000fc000000fc010000fc020000fc030000fc040000fc050000fc060000fc
             070000fc080000fc090000fc0a0000fc0b0000fc0c0000fc0d0000fc0e0000fc
             0f0000fc100000fc110000fc120000fc130000fc140000fc150000fc160000fc
             170000fc180000fc190000fc1a0000fc1b0000fc1c0000fc1d0000fc1e0000fc
             1f0000fc200000fc210000fc220000fc230000fc240000fc250000fc260000fc
             270000fc280000fc290000fc2a0000fc2b0000fc2c0000fc2d0000fc2e0000fc
             2f0000fc300000fc310000fc320000fc330000fc340000fc350000fc360000fc
             370000fc380000fc390000fc3a0000fc3b0000fc3c0000fc3d0000fc3e0000fc
             3f0000fc400000fc410000fc420000fc430000fc440000fc450000fc460000fc
             470000fc480000fc490000fc4a0000fc4b0000fc4c0000fc4d0000fc4e0000fc
             4f0000fc500000fc510000fc520000fc530000fc540000fc550000fc560000fc
             570000fc580000fc590000fc5a0000fc5b0000fc5c0000fc5d0000fc5e0000fc
             5f0000fc600000fc610000fc620000fc630000fc640000fc650000fc660000fc
             670000fc680000fc690000fc6a0000fc6b0000fc6c0000fc6d0000fc6e0000fc
             6f0000fc700000fc710000fc720000fc730000fc740000fc750000fc760000fc
             770000fc780000fc790000fc7a0000fc7b0000fc7c0000fc7d0000fc7e0000fc
             7f0000fc800000fc810000fc820000fc830000fc840000fc850000fc860000fc
             870000fc880000fc890000fc8a0000fc8b0000fc8c0000fc8d0000fc8e0000fc
             8f0000fc900000fc910000fc920000fc930000fc940000fc950000fc960000fc
             970000fc980000fc990000fc9a0000fc9b0000fc9c0000fc9d0000fc9e0000fc
             9f0000fca00000fca10000fca20000fca30000fca40000fca50000fca60000fc
             a70000fca80000fca90000fcaa0000fcab0000fcac0000fcad0000fcae0000fc
             af0000fcb00000fcb10000fcb20000fcb30000fcb40000fcb50000fcb60000fc
             b70000fcb80000fcb90000fcba0000fcbb0000fcbc0000fcbd0000fcbe0000fc
             bf0000fcc00000fcc10000fcc20000fcc30000fcc40000fcc50000fcc60000fc
             c70000fcc80000fcc90000fcca0000fccb0000fccc0000fccd0000fcce0000fc
             cf0000fcd00000fcd10000fcd20000fcd30000fcd40000fcd50000fcd60000fc
             d70000fcd80000fcd90000fcda0000fcdb0000fcdc0000fcdd0000fcde0000fc
             df0000fce00000fce10000fce20000fce30000fce40000fce50000fce60000fc
             e70000fce80000fce90000fcea0000fceb0000fcec0000fced0000fcee0000fc
             ef0000fcf00000fcf10000fcf20000fcf30000fcf40000fcf50000fcf60000fc
             f70000fcf80000fcf90000fcfa0000fcfb0000fcfc0000fcfd0000fcfe022d00
             00fcff0000fd000000fd010000fd020000fd030000fd040000fd050000fd0600
             00fd070000fd080000fd090000fd0a0000fd0b0000fd0c0000fd0d0000fd0e00
             00fd0f0000fd100000fd110000fd120000fd130000fd140000fd150000fd1600
             00fd170000fd180000fd190000fd1a0000fd1b0000fd1c0000fd1d0000fd1e00
             00fd1f0000fd200000fd210000fd220000fd230000fd240000fd250000fd2600
             00fd270000fd280000fd290000fd2a0000fd2b80040400000000c0f004000000
             0718b8a4f4",
        ),
        (
            "update-no-export-med",
            update(&[], attrs([65_001, 174], 30, true), &["184.164.244.0/24"]),
            "ffffffffffffffffffffffffffffffff004102000000264001010040020a0202
             0000fde9000000ae8004040000001ec00804ffffff01c0f0040000000718b8a4
             f4",
        ),
        (
            "pure-withdrawal",
            update(&["184.164.244.0/23"], None, &[]),
            "ffffffffffffffffffffffffffffffff001b02000417b8a4f40000",
        ),
        (
            "withdraw-plus-nlri",
            update(
                &["10.0.0.0/8", "192.168.4.0/24", "0.0.0.0/0"],
                attrs([65_001, 174], 0, false),
                &["184.164.244.0/24", "184.164.245.0/24", "100.64.0.0/10"],
            ),
            "ffffffffffffffffffffffffffffffff0048020007080a18c0a80400001f4001
             010040020a02020000fde9000000ae80040400000000c0f0040000000718b8a4
             f418b8a4f50a6440",
        ),
        (
            "notification-with-data",
            BgpMessage::Notification(NotificationMsg {
                code: CEASE,
                subcode: 2,
                data: vec![0xAB, 0xCD],
            }),
            "ffffffffffffffffffffffffffffffff0017030602abcd",
        ),
        (
            "keepalive",
            BgpMessage::Keepalive,
            "ffffffffffffffffffffffffffffffff001304",
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn encode_matches_golden_bytes() {
    let mut mismatches = Vec::new();
    for (name, msg, expected) in cases() {
        let got = hex(&encode(&msg).expect("golden message encodes"));
        let expected: String = expected.split_whitespace().collect();
        if got != expected {
            mismatches.push(format!("{name}:\n  expected {expected}\n  got      {got}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
