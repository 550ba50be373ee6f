//! WAL byte-order fixture: the approved drain function plus two
//! out-of-band backend writes.

impl Log {
    fn drain_staged(&mut self, bytes: &[u8]) {
        self.sink.append(bytes);
    }

    fn rogue_append(&mut self, bytes: &[u8]) {
        self.sink.append(bytes);
    }

    fn raw_write(&self, out: &mut File, bytes: &[u8]) {
        out.write_all(bytes).ok();
    }
}
