//! Known-bad fixture for P001: panics in spill-I/O code.

pub fn header(bytes: &[u8]) -> u32 {
    let first = bytes.first().copied().unwrap();
    if first == 0 {
        panic!("zero header byte");
    }
    let rest = bytes.get(1).copied().expect("one-byte file");
    u32::from(first) + u32::from(rest)
}

pub fn width(bytes: &[u8]) -> usize {
    assert!(!bytes.is_empty(), "empty segment");
    assert_eq!(bytes.len() % 4, 0);
    assert_ne!(bytes[0], 0xFF);
    match bytes[0] {
        1 => 1,
        2 => 2,
        4 => todo!(),
        8 => unimplemented!("8-byte codes"),
        _ => unreachable!("validated above"),
    }
}
