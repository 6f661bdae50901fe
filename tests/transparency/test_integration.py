"""CT case-study integration: full lifecycle across roles and restarts."""

import pytest

from repro.core.store_p2 import ELSMP2Store
from repro.sgx.counter import TrustedMonotonicCounter
from repro.transparency import (
    CertificateStream,
    CTLogServer,
    DomainMonitor,
    LogAuditor,
)
from tests.conftest import TEST_SCALE


def make_log(**overrides):
    defaults = dict(
        scale=TEST_SCALE,
        write_buffer_bytes=2 * 1024,
        level1_max_bytes=4 * 1024,
        file_max_bytes=4 * 1024,
        block_bytes=1024,
        name_prefix="cti",
    )
    defaults.update(overrides)
    return CTLogServer(ELSMP2Store(**defaults))


def test_full_ct_lifecycle():
    log = make_log()
    stream = CertificateStream(domain_count=60, seed=9)
    auditor = LogAuditor(log)
    monitor = DomainMonitor(log, "host0000")

    # Phase 1: initial issuance wave.
    wave1 = list(stream.stream(200))
    for cert in wave1:
        log.submit(cert)
    log.store.flush()
    baseline_alerts = monitor.poll()
    assert baseline_alerts

    # Phase 2: a mis-issued certificate for a monitored domain appears.
    rogue = next(
        c for c in CertificateStream(domain_count=60, seed=77).stream(500)
        if c.hostname.startswith("host0000")
    )
    log.submit(rogue)
    log.store.flush()
    alerts = monitor.poll()
    assert any(a.hostname == rogue.log_key for a in alerts)

    # Phase 3: the domain owner revokes; auditors must see it gone.
    log.revoke(rogue.hostname)
    report = auditor.audit(rogue)
    assert not report.included

    # Phase 4: continued issuance still audits cleanly.
    for cert in stream.stream(100):
        log.submit(cert)
    last = wave1[-1]
    latest = [c for c in wave1 if c.hostname == last.hostname][-1]
    # The hostname may have been re-issued in phase 4; only assert that
    # the *log's* answer is internally consistent and verified.
    result = log.lookup(latest.hostname)
    assert result.fingerprint is not None or result.timestamp is None


def test_ct_log_survives_restart():
    """The log server recovers its trusted state after a crash."""
    counter = None
    log = make_log(rollback_protection=True, counter_buffer_ops=4)
    counter = log.store.counter
    stream = CertificateStream(domain_count=40, seed=3)
    certs = list(stream.stream(150))
    for cert in certs:
        log.submit(cert)
    log.store.flush()
    log.store.persist_seal()

    revived_store = ELSMP2Store(
        scale=TEST_SCALE,
        write_buffer_bytes=2 * 1024,
        level1_max_bytes=4 * 1024,
        file_max_bytes=4 * 1024,
        block_bytes=1024,
        name_prefix="cti",
        disk=log.store.disk,
        clock=log.store.clock,
        counter=counter,
        rollback_protection=True,
        reopen=True,
    )
    revived_store.recover_from_disk()
    revived_log = CTLogServer(revived_store)
    latest = certs[-1]
    result = revived_log.lookup(latest.hostname)
    expected = [c for c in certs if c.hostname == latest.hostname][-1]
    assert result.fingerprint == expected.fingerprint

    monitor = DomainMonitor(revived_log, "host0000")
    assert monitor.poll()  # verified-complete scans still work


def test_ct_proof_sizes_stay_small():
    log = make_log()
    stream = CertificateStream(domain_count=100, seed=5)
    for cert in stream.stream(400):
        log.submit(cert)
    log.store.flush()
    sizes = []
    for cert in list(stream.stream(30)):
        sizes.append(log.lookup(cert.hostname).proof_bytes)
    assert max(sizes) < 4096  # sub-4KB proofs at this scale
