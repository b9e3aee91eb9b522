//! Known-good fixture for P001: failures route through an error type;
//! `debug_assert*` compiles out of release code and stays allowed; tests
//! may unwrap and assert.

pub fn header(bytes: &[u8]) -> Result<u32, String> {
    let Some(first) = bytes.first().copied() else {
        return Err("empty spill file".to_owned());
    };
    if first == 0 {
        return Err("zero header byte".to_owned());
    }
    debug_assert!(first != 0xFF, "validated on write");
    debug_assert_eq!(bytes.len() % 1, 0);
    debug_assert_ne!(first, 0);
    Ok(u32::from(first))
}

#[cfg(test)]
mod tests {
    use super::header;

    #[test]
    fn round_trip() {
        assert_eq!(header(&[7]).unwrap(), 7);
        assert!(header(&[0]).is_err());
        header(&[]).expect_err("empty must fail");
    }
}
