//! Error-path coverage for every server handler and client operation.

use std::sync::Arc;

use corm_core::client::CormClient;
use corm_core::server::{CormError, CormServer, ServerConfig};
use corm_core::GlobalPtr;
use corm_sim_core::time::SimTime;

fn server() -> Arc<CormServer> {
    Arc::new(CormServer::new(ServerConfig { workers: 2, ..ServerConfig::default() }))
}

#[test]
fn payload_too_large_rejected_on_alloc_and_write() {
    let server = server();
    let mut client = CormClient::connect(server.clone());
    let err = client.alloc(1 << 20).unwrap_err();
    assert!(matches!(err, CormError::PayloadTooLarge(_)), "{err:?}");
    // A payload whose class exists but is larger than a block is rejected
    // too, not left to the allocator.
    let err = client.alloc(5000).unwrap_err();
    assert!(matches!(err, CormError::PayloadTooLarge(5000)), "{err:?}");
    // A write larger than the object's class capacity is rejected too.
    let mut ptr = client.alloc(16).unwrap().value;
    let big = vec![0u8; 4096];
    let err = client.write(&mut ptr, &big).unwrap_err();
    assert!(matches!(err, CormError::PayloadTooLarge(_)), "{err:?}");
    // The object is untouched by the failed write.
    client.write(&mut ptr, b"ok").unwrap();
    let mut buf = [0u8; 2];
    client.read(&mut ptr, &mut buf).unwrap();
    assert_eq!(&buf, b"ok");
}

#[test]
fn unknown_block_for_never_allocated_address() {
    let server = server();
    let mut client = CormClient::connect(server.clone());
    // Allocate once so the mmap arena exists, then forge a pointer far
    // beyond it.
    let real = client.alloc(16).unwrap().value;
    let mut forged = GlobalPtr { vaddr: real.vaddr + (1 << 30), ..real };
    let mut buf = [0u8; 8];
    let err = client.read(&mut forged, &mut buf).unwrap_err();
    assert!(matches!(err, CormError::UnknownBlock(_)), "{err:?}");
    let err = client.free(&mut forged).unwrap_err();
    assert!(matches!(err, CormError::UnknownBlock(_)), "{err:?}");
}

#[test]
fn bad_pointer_for_misaligned_offset() {
    let server = server();
    let mut client = CormClient::connect(server.clone());
    let real = client.alloc(48).unwrap().value; // 64-byte class
    let mut misaligned = GlobalPtr { vaddr: real.vaddr + 3, ..real };
    let mut buf = [0u8; 8];
    let err = client.read(&mut misaligned, &mut buf).unwrap_err();
    assert!(matches!(err, CormError::BadPointer), "{err:?}");
}

#[test]
fn wrong_id_on_live_slot_reports_not_found() {
    let server = server();
    let mut client = CormClient::connect(server.clone());
    let real = client.alloc(48).unwrap().value;
    // Same slot, fabricated ID that exists nowhere in the block.
    let mut wrong = GlobalPtr { obj_id: real.obj_id.wrapping_add(1), ..real };
    let mut buf = [0u8; 8];
    let err = client.read(&mut wrong, &mut buf).unwrap_err();
    assert!(matches!(err, CormError::ObjectNotFound), "{err:?}");
    // DirectRead with recovery also lands on ObjectNotFound, not a hang.
    let err = client.direct_read_with_recovery(&mut wrong, &mut buf, SimTime::ZERO).unwrap_err();
    assert!(matches!(err, CormError::ObjectNotFound), "{err:?}");
}

#[test]
fn release_ptr_of_direct_pointer_is_noop_cheap_and_safe() {
    let server = server();
    let mut client = CormClient::connect(server.clone());
    let mut ptr = client.alloc(48).unwrap().value;
    client.write(&mut ptr, b"stable").unwrap();
    let released_before = server.stats.vaddrs_released.load(std::sync::atomic::Ordering::Relaxed);
    let fresh = client.release_ptr(&mut ptr).unwrap().value;
    // Same block: nothing to re-home, no vaddr released.
    assert_eq!(fresh.vaddr, ptr.vaddr);
    assert_eq!(
        server.stats.vaddrs_released.load(std::sync::atomic::Ordering::Relaxed),
        released_before
    );
    let mut buf = [0u8; 6];
    client.read(&mut ptr, &mut buf).unwrap();
    assert_eq!(&buf, b"stable");
}

#[test]
fn zero_length_reads_and_writes_are_fine() {
    let server = server();
    let mut client = CormClient::connect(server.clone());
    let mut ptr = client.alloc(16).unwrap().value;
    client.write(&mut ptr, b"").unwrap();
    let mut empty: [u8; 0] = [];
    assert_eq!(client.read(&mut ptr, &mut empty).unwrap().value, 0);
    let n = client.direct_read_with_recovery(&mut ptr, &mut empty, SimTime::ZERO).unwrap().value;
    assert_eq!(n, 0);
}

#[test]
fn compacting_an_untouched_class_is_a_cheap_noop() {
    let server = server();
    let report = server.compact_class(corm_alloc::ClassId(0), SimTime::ZERO).unwrap().value;
    assert_eq!(report.collected, 0);
    assert_eq!(report.merges, 0);
    assert_eq!(report.blocks_freed, 0);
}

#[test]
fn reads_larger_than_object_capacity_are_truncated() {
    let server = server();
    let mut client = CormClient::connect(server.clone());
    let mut ptr = client.alloc(16).unwrap().value; // 24-byte class
    client.write(&mut ptr, b"0123456789").unwrap();
    let mut buf = [0xFFu8; 64];
    let n = client.read(&mut ptr, &mut buf).unwrap().value;
    assert!(n < 64, "read must be capped at the class capacity");
    assert_eq!(&buf[..10], b"0123456789");
}
