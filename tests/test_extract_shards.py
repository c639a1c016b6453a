"""Deep extraction split across forked children: the same digits with any
shard count, the same certificate rule, and an answer that never depends on
a child succeeding."""
import builtins
import os
import threading
import time
from functools import partial

import pytest

from bbpkit import extractor
from bbpkit.catalog import default_catalog, derive_bbp
from bbpkit.extractor import ExtractRequest, digit_window, extract
from bbpkit.pformula import _scaled_sum, parse_p

LOG2 = parse_p("P(1, 2^1, 1, [1])")  # 2 log 2
LOG2_AT_1E6 = "5247E600"  # digit_window(LOG2, 10**6, 8, 10**6 + 128) gives the same, in ~40 s
EXTRACTABLE = ("bbp_ready", "printed_formula")


def catalog_formula(record_id):
    return derive_bbp(default_catalog().get(record_id))


@pytest.fixture
def forks(monkeypatch):
    """Two shards whatever the host, and a list of the pids os.fork returned."""
    monkeypatch.setattr(extractor, "SHARDS", 2)
    calls = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            calls.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counting_fork)
    yield calls
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def one_shard(monkeypatch, req):
    with monkeypatch.context() as m:
        m.setattr(extractor, "SHARDS", 1)
        return extract(req)


def in_child(parent_pid, action):
    """A stand-in for extractor._scaled_sum that runs `action` in a forked
    child and the real sum in the parent."""
    real = extractor._scaled_sum

    def head(*args):
        if os.getpid() != parent_pid:
            return action(real, *args)
        return real(*args)
    return head


def test_log2_at_bit_1e6_same_digits_sharded_and_in_one_process(monkeypatch, forks):
    req = ExtractRequest(LOG2, 10**6, 8)
    sharded = extract(req)
    assert len(forks) == 1
    single = one_shard(monkeypatch, req)
    assert sharded.digits == single.digits == LOG2_AT_1E6
    assert abs(sharded.confidence_bits - single.confidence_bits) <= 1


@pytest.mark.parametrize("record_id, pos", [
    ("deg5-zeta5-2e60", 50_000),  # prefactor 9/(2^t * odd), a 16-bit odd part
    ("deg3-zeta3-2e12", 49_999),
    ("deg2-catalan-2e60", 50_003),  # negative prefactor
])
@pytest.mark.parametrize("shards", [2, 4])
def test_catalog_formulas_near_5e4_same_digits_with_any_shard_count(
        monkeypatch, forks, record_id, pos, shards):
    f = catalog_formula(record_id)
    req = ExtractRequest(f, pos, 8)
    single = one_shard(monkeypatch, req)
    monkeypatch.setattr(extractor, "SHARDS", shards)
    sharded = extract(req)
    assert len(forks) == shards - 1
    assert sharded.digits == single.digits == digit_window(f, pos, 8, pos + 32 + 96)
    assert abs(sharded.confidence_bits - single.confidence_bits) <= 1


@pytest.mark.parametrize("shards", [2, 3, 4])
def test_each_cut_adds_at_most_one_group_to_the_charge(monkeypatch, shards):
    # a range opens a fresh group where the sequential loop carried one over,
    # so each cut can split one group in two; the ranges' sums agree with the
    # sequential sum up to the groups' floors
    f = catalog_formula("deg5-zeta5-2e60")
    work, blocks = 64, 840
    head = partial(_scaled_sum, f, 50_000, work)
    acc, groups = head(0, blocks)
    monkeypatch.setattr(extractor, "SHARDS", shards)
    split_acc, split_groups = extractor._split(head, blocks, extractor.SHARD_MIN_TERMS * shards,
                                               (1 << work) - 1)
    assert 0 <= split_groups - groups <= shards - 1
    diff = (split_acc - acc) % (1 << work)
    assert min(diff, (1 << work) - diff) <= groups + split_groups


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_fork_failure_computes_in_process(monkeypatch, forks, call):
    def refuse():
        raise OSError(f"{call} refused")
    monkeypatch.setattr(os, call, refuse)
    assert extract(ExtractRequest(LOG2, 200_000, 8)).digits == \
        one_shard(monkeypatch, ExtractRequest(LOG2, 200_000, 8)).digits


def test_failing_child_has_its_range_recomputed(monkeypatch, forks):
    req = ExtractRequest(catalog_formula("deg3-zeta3-2e12"), 50_000, 8)
    want = one_shard(monkeypatch, req)
    monkeypatch.setattr(extractor, "_scaled_sum", in_child(os.getpid(), lambda real, *a: os._exit(1)))
    got = extract(req)
    assert len(forks) == 1
    assert got.digits == want.digits


@pytest.mark.parametrize("garbage", [b"", b"\xffnot hex", b"12", b"1 2 3", b"-1 5", b"1" * 40 + b" 5"])
def test_child_writing_garbage_has_its_range_recomputed(monkeypatch, forks, garbage):
    class Garbled:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(garbage)

    def garbling_open(fd, mode="r", *args, **kwargs):
        fh = builtins.open(fd, mode, *args, **kwargs)
        return Garbled(fh) if "w" in mode else fh
    monkeypatch.setattr(extractor, "open", garbling_open, raising=False)
    req = ExtractRequest(catalog_formula("deg2-pi2-2e12"), 50_000, 8)
    got = extract(req)
    assert len(forks) == 1
    assert got.digits == one_shard(monkeypatch, req).digits


def test_children_are_killed_when_the_parent_shard_raises(monkeypatch, forks):
    parent = os.getpid()
    real = extractor._scaled_sum

    def head(*args):
        if os.getpid() != parent:
            time.sleep(60)
            return real(*args)
        raise MemoryError("parent shard")
    monkeypatch.setattr(extractor, "_scaled_sum", head)
    t0 = time.monotonic()
    with pytest.raises(MemoryError):
        extract(ExtractRequest(LOG2, 200_000, 8))
    assert len(forks) == 1
    assert time.monotonic() - t0 < 30


def test_no_fork_while_another_thread_is_alive(monkeypatch, forks):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        got = extract(ExtractRequest(LOG2, 200_000, 8))
    finally:
        release.set()
        thread.join()
    assert forks == []
    assert got.digits == extract(ExtractRequest(LOG2, 200_000, 8)).digits
    assert len(forks) == 1


def test_shallow_requests_never_fork(monkeypatch, forks):
    # the deepest bit a shallow `bbp digits` request reads, for every extractable formula
    monkeypatch.setattr(extractor, "SHARDS", 4)
    for record in default_catalog():
        if record.kind in EXTRACTABLE:
            extract(ExtractRequest(derive_bbp(record), 3_999, 8))
    assert forks == []
