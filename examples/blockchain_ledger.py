#!/usr/bin/env python3
"""A cryptocurrency ledger store on eLSM (the paper's other motivator).

Blockchain nodes store their ledger state in LevelDB (Bitcoin Core,
Ethereum, HyperLedger — Section 3.1).  This example models a node that
outsources that storage to an untrusted cloud host hardened with eLSM:

* an intensive stream of transactions updates account balances
  (small random-key writes — the LSM sweet spot);
* an SPV-style light client fetches individual balances with verified
  freshness (a stale balance enables double-spending);
* a block explorer pulls account ranges with verified completeness;
* rollback protection anchors the ledger state to a trusted monotonic
  counter, so the host cannot revert the chain to a pre-payment state.

Run:  python examples/blockchain_ledger.py
"""

import random
import struct

from repro import RollbackDetected, ScaleConfig
from repro.core.adversary import RollbackHost
from repro.core.store_p2 import ELSMP2Store


def account(i: int) -> bytes:
    return b"acct%012d" % i


def encode_balance(amount: int, nonce: int) -> bytes:
    return struct.pack("<QQ", amount, nonce)


def decode_balance(blob: bytes) -> tuple[int, int]:
    return struct.unpack("<QQ", blob)


def open_ledger(**restart) -> ELSMP2Store:
    """The node's store; a restart passes the surviving disk, clock and
    hardware counter."""
    return ELSMP2Store(
        scale=ScaleConfig(factor=1 / 2048),
        rollback_protection=True,
        counter_buffer_ops=64,
        **restart,
    )


def main() -> None:
    rng = random.Random(42)
    ledger = open_ledger()

    print("== genesis: funding 500 accounts ==")
    balances = {i: 1_000 for i in range(500)}
    for i, amount in balances.items():
        ledger.put(account(i), encode_balance(amount, 0))

    print("== transaction stream ==")
    nonces = {i: 0 for i in range(500)}
    for _ in range(2000):
        sender, receiver = rng.sample(range(500), 2)
        amount = rng.randint(1, max(1, balances[sender] // 4))
        if balances[sender] < amount:
            continue
        balances[sender] -= amount
        balances[receiver] += amount
        for party in (sender, receiver):
            nonces[party] += 1
            ledger.put(account(party), encode_balance(balances[party], nonces[party]))
    ledger.flush()
    print(f"applied transfers; store spans levels {ledger.db.level_indices()}, "
          f"write amplification {ledger.db.stats.write_amplification():.1f}x")

    print("\n== SPV client: verified balance lookups ==")
    probe = rng.randrange(500)
    verified = ledger.get_verified(account(probe))
    amount, nonce = decode_balance(verified.value)
    assert amount == balances[probe], "verified balance must match the model"
    print(f"acct {probe}: balance={amount} nonce={nonce} "
          f"(proof {verified.proof_bytes} B — no full-chain download needed)")

    print("\n== explorer: verified-complete account range ==")
    rows = ledger.scan(account(100), account(109))
    total = sum(decode_balance(v)[0] for _, v in rows)
    print(f"accounts 100..109: {len(rows)} accounts, {total} coins "
          f"(completeness proven — none hidden)")

    print("\n== rollback attack: reverting a payment ==")
    host = RollbackHost(ledger.disk)
    # persist_seal writes the seal, then moves the monotonic counter.
    ledger.persist_seal()
    host.snapshot()
    # A big payment lands...
    balances[3] -= 500
    balances[4] += 500
    nonces[3] += 1
    nonces[4] += 1
    ledger.put(account(3), encode_balance(balances[3], nonces[3]))
    ledger.put(account(4), encode_balance(balances[4], nonces[4]))
    ledger.persist_seal()
    # ...the node restarts, and the host restores the pre-payment disk.
    host.rollback_to(0)
    restarted = open_ledger(
        disk=ledger.disk, clock=ledger.clock, counter=ledger.counter, reopen=True
    )
    try:
        restarted.recover_from_disk()
        raise SystemExit("UNDETECTED ROLLBACK — this must never print")
    except RollbackDetected as exc:
        print(f"rollback detected by the monotonic counter: {exc}")

    total_supply = sum(balances.values())
    print(f"\nledger consistent: total supply {total_supply} "
          f"(= {500 * 1000} minted at genesis)")


if __name__ == "__main__":
    main()
