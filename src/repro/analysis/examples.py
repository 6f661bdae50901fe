"""Minimal positive/negative examples per rule, for ``lint --explain``.

Each entry distils the rule's test fixtures (``tests/analysis``) into
the smallest snippet that fires (*positive*) and its smallest clean
counterpart (*negative*).  ``test_explain.py`` fails when a registered
rule has no example, so the catalogue can never silently lag the rule
set.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RuleExample:
    """One rule's smallest firing / clean snippet pair."""

    positive: str  # fires the rule
    negative: str  # the corrected form; stays clean


RULE_EXAMPLES: dict[str, RuleExample] = {
    "EL101": RuleExample(
        positive=(
            "# zones: repro.core.* = enclave, repro.host.* = untrusted\n"
            "# repro/core/verifier.py\n"
            "from repro.host import reader  # enclave -> untrusted import"
        ),
        negative=(
            "# repro/core/verifier.py\n"
            "from repro.sgx.boundary import copy_in  # sanctioned shim"
        ),
    ),
    "EL102": RuleExample(
        positive=(
            "# enclave zone\n"
            "def load(self, name):\n"
            "    return open(name, 'rb').read()  # raw host read"
        ),
        negative=(
            "def load(self, env, name):\n"
            "    return env.file_read(name, 0, 4096)  # billed boundary"
        ),
    ),
    "EL103": RuleExample(
        positive=(
            "def proof_at(pool, i):\n"
            "    return pool[i]  # host-controlled index, no bounds check"
        ),
        negative=(
            "def proof_at(pool, i):\n"
            "    if i >= len(pool):\n"
            "        raise VerificationError('proof index out of range')\n"
            "    return pool[i]"
        ),
    ),
    "EL104": RuleExample(
        positive=(
            "# src/repro/util/scratch.py exists but matches no pattern\n"
            "# under [zones] in analysis/zones.toml"
        ),
        negative=(
            "# zones.toml\n"
            "# neutral = [\"repro.util.*\"]  # deliberate, not a gap"
        ),
    ),
    "EL201": RuleExample(
        positive=(
            "try:\n"
            "    verify(proof)\n"
            "except:  # swallows everything, SystemExit included\n"
            "    pass"
        ),
        negative=(
            "try:\n"
            "    verify(proof)\n"
            "except VerificationError:\n"
            "    raise"
        ),
    ),
    "EL202": RuleExample(
        positive=(
            "# fail-closed module\n"
            "try:\n"
            "    check_digest(blob)\n"
            "except Exception:\n"
            "    return None  # fails open"
        ),
        negative=(
            "try:\n"
            "    check_digest(blob)\n"
            "except Exception:\n"
            "    raise VerificationError('digest check failed')"
        ),
    ),
    "EL203": RuleExample(
        positive="if digest == expected_root:  # timing side channel\n    ...",
        negative="if constant_time_eq(digest, expected_root):\n    ...",
    ),
    "EL204": RuleExample(
        positive=(
            "def decode(buf):\n"
            "    return Proof(buf[4:])  # no magic check, tail ignored"
        ),
        negative=(
            "def decode(buf):\n"
            "    if buf[:4] != MAGIC:\n"
            "        raise WireError('bad magic')\n"
            "    proof, rest = Proof.consume(buf[4:])\n"
            "    if rest:\n"
            "        raise WireError('trailing bytes')\n"
            "    return proof"
        ),
    ),
    "EL301": RuleExample(
        positive=(
            "try:\n"
            "    step()\n"
            "except BaseException:  # can eat SimulatedCrash\n"
            "    log()"
        ),
        negative=(
            "try:\n"
            "    step()\n"
            "except Exception:  # SimulatedCrash(BaseException) escapes\n"
            "    log()"
        ),
    ),
    "EL302": RuleExample(
        positive="env.crash_point('wal.totally_new_site')  # unregistered",
        negative=(
            "# faults/plan.py: CRASH_SITES = (..., 'wal.after_append')\n"
            "env.crash_point('wal.after_append')"
        ),
    ),
    "EL303": RuleExample(
        positive=(
            "# CRASH_SITES registers 'flush.orphan' but no code calls\n"
            "# crash_point('flush.orphan')"
        ),
        negative=(
            "# every registered site has a crash_point() call site\n"
            "# (tests count as references)"
        ),
    ),
    "EL401": RuleExample(
        positive="self._m = telemetry.counter('GroupCommitTotal', '...')",
        negative="self._m = telemetry.counter('lsm.group_commit.groups', '...')",
    ),
    "EL402": RuleExample(
        positive=(
            "# metric 'lsm.new.counter' registered in code but absent\n"
            "# from docs/observability.md"
        ),
        negative=(
            "# docs/observability.md lists lsm.new.counter next to its\n"
            "# registration"
        ),
    ),
    "EL501": RuleExample(
        positive=(
            "raw = env.copy_in(nbytes)  # untrusted\n"
            "registry.set(level, raw)   # trusted sink, unsanitized"
        ),
        negative=(
            "raw = env.copy_in(nbytes)\n"
            "digest = verify_proof(raw)  # sanitizer\n"
            "registry.set(level, digest)"
        ),
    ),
    "EL502": RuleExample(
        positive="log.info('sealing with key %s', self._sealing_key)",
        negative="log.info('sealing with key id %d', self._key_id)",
    ),
    "EL503": RuleExample(
        positive=(
            "verifier.verify_get(key, proof)  # result dropped\n"
            "return value"
        ),
        negative=(
            "ok = verifier.verify_get(key, proof)\n"
            "if not ok:\n"
            "    raise VerificationError(key)\n"
            "return value"
        ),
    ),
    "EL601": RuleExample(
        positive=(
            '# shared."repro.lsm.db.LSMStore.immutables" = "lock:_lock"\n'
            "def peek(self):\n"
            "    return self.immutables[0]  # no lock held"
        ),
        negative=(
            "def peek(self):\n"
            "    with self._lock:\n"
            "        return self.immutables[0]"
        ),
    ),
    "EL602": RuleExample(
        positive=(
            "meta = self._publish_meta()\n"
            "meta.files.append(extra)  # mutated after publication"
        ),
        negative=(
            "files = [*files, extra]\n"
            "meta = self._publish_meta(files)  # built before publish"
        ),
    ),
    "EL603": RuleExample(
        positive=(
            "with parallel_track() as outer:\n"
            "    with parallel_track():  # nested tracks\n"
            "        ..."
        ),
        negative=(
            "with parallel_track() as track:\n"
            "    track.fork(job)\n"
            "# join happens at context exit, outside the block"
        ),
    ),
    "EL604": RuleExample(
        positive=(
            "def _bg(self):\n"
            "    self._flush_locked()  # exception kills the thread"
        ),
        negative=(
            "def _bg(self):\n"
            "    try:\n"
            "        self._flush_locked()\n"
            "    except Exception as exc:\n"
            "        self._errors.record(exc)  # bounded error ring"
        ),
    ),
    "EL701": RuleExample(
        positive=(
            "wal_append(record)\n"
            "do_seal()  # seals bytes never fsynced"
        ),
        negative=(
            "wal_append(record)\n"
            "wal_fsync()\n"
            "do_seal()"
        ),
    ),
    "EL702": RuleExample(
        positive=(
            "do_install()\n"
            "do_seal()  # seal before flushed_ts advance"
        ),
        negative=(
            "do_install()\n"
            "self._flushed_ts = flushed_ts\n"
            "do_seal()"
        ),
    ),
    "EL703": RuleExample(
        positive=(
            "wal_append(record)\n"
            "wal_fsync()  # no crash point between durable effects"
        ),
        negative=(
            "wal_append(record)\n"
            "crash_point('wal.after_append')\n"
            "wal_fsync()"
        ),
    ),
    "EL801": RuleExample(
        positive=(
            "def multi_get(self, keys):\n"
            "    for key in keys:\n"
            "        with self.env.op_call('get'):  # ECall per key\n"
            "            self._lookup(key)"
        ),
        negative=(
            "def multi_get(self, keys):\n"
            "    with self.env.op_call('multi_get'):  # one ECall per batch\n"
            "        for key in keys:\n"
            "            self._lookup(key)"
        ),
    ),
    "EL802": RuleExample(
        positive=(
            "def append_group(self, records):\n"
            "    for record in records:\n"
            "        self.env.file_append(self.path, record)\n"
            "        self.env.file_fsync(self.path)  # fsync per record"
        ),
        negative=(
            "def append_group(self, records):\n"
            "    self.env.file_append(self.path, join(records))\n"
            "    self.env.file_fsync(self.path)  # one fsync per group"
        ),
    ),
    "EL803": RuleExample(
        positive=(
            "# costs.toml certifies put.hash = \"1\" but HEAD now derives\n"
            "# \"2\" - the derived certificate drifted"
        ),
        negative=(
            "# python -m repro lint --update-costs && git add\n"
            "# analysis/costs.toml  # drift re-certified in review"
        ),
    ),
    "EL804": RuleExample(
        positive=(
            "def get(self, key):\n"
            "    entries = read_table_sequential(env, meta)"
        ),
        negative=(
            "def get(self, key):\n"
            "    block = self.fetcher.read_block(meta, handle)  # cached"
        ),
    ),
    "EL810": RuleExample(
        positive=(
            "for record in merged:\n"
            "    if shadowed(record):\n"
            "        continue  # dropped before Filter() digested it\n"
            "    digest_input(record)"
        ),
        negative=(
            "for record in merged:\n"
            "    digest_input(record)  # Filter() sees every record\n"
            "    if shadowed(record):\n"
            "        continue"
        ),
    ),
    "EL811": RuleExample(
        positive=(
            "self._install_run(level, metas)  # manifest first\n"
            "metas = self._compactor.run(ctx, sources, namer)"
        ),
        negative=(
            "metas = self._compactor.run(ctx, sources, namer)\n"
            "self._install_run(level, metas)  # publish after prepare"
        ),
    ),
    "EL901": RuleExample(
        positive=(
            "value = compute()  # elsm-lint: disable=EL203\n"
            "# no EL203 finding exists here any more: stale pragma"
        ),
        negative=(
            "if digest == expected:  # elsm-lint: disable=EL203\n"
            "    ...  # pragma still suppresses a live finding"
        ),
    ),
}
