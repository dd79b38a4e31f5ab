"""Golden-trace determinism regression tests.

Every determinism model in this reproduction builds on one invariant:
execution is a pure function of (program, environment seed+inputs,
scheduler decisions).  These tests pin the *complete* observable
behaviour of each corpus application - every step's reads/writes/sync/io
effects, the schedule, the failure report, outputs, and metered cycles -
as a SHA-256 digest (:meth:`repro.vm.trace.Trace.fingerprint`).

Interpreter performance work (decode-once dispatch, lazy step effects,
trace indexes) must not move these digests.  If a change here is
intentional - a new opcode, a semantic bug fix like the implicit-return
step - regenerate the digests with::

    PYTHONPATH=src python -c "
    from repro.apps import ALL_APPS
    for name in sorted(ALL_APPS):
        m = ALL_APPS[name]().run(11)
        print(name, m.trace.fingerprint())"

and say why in the commit message.
"""

import pytest

from repro.apps import ALL_APPS
from repro.harness.bench import COUNTER_SRC
from repro.models import DebugSession
from repro.models.session import resolve_case
from repro.replay.base import ReplayResult
from repro.vm import RandomScheduler, assemble, run_program

SEED = 11

# app name -> sha256 fingerprint of its production run under seed 11.
GOLDEN_APP_DIGESTS = {
    "adder": "a757cb559b6ed58c71c78e2bad9080c05119a9768d6a0952f166518f553b6df4",
    "bank": "0fbcf78a00e7f2b8942181f25a362c812119041bd8f1f1508ff2ff5eee4ef73f",
    "deadlock": "c62a8c0cb731627e9a4b7dc33e3713c3456f0f0202f681d404d8692f8ac5a5fe",
    "large_request": (
        "0989a1eb34948337d8d672b081994e7b8bb5239cc929f63bfa3e125a0d785662"),
    "msg_server": (
        "0f2752e6ac422a45cc8054ca2b57754efb40d82479a256333212ec5f52eac88b"),
    "overflow": (
        "f2abb9c6cdcf747babbc7f209b4dadc76f0c96cb26e5fc12a9a1c3de049bbcb3"),
    "racy_counter": (
        "b8cb8ebc3a906aa7f4e031ff0ddcd1ab1a2d9407686c04b4ba333cfaf3210cb7"),
}

# The benchmark workload (imported from the bench harness, so the digest
# pins the exact execution being optimised) is golden too.
GOLDEN_COUNTER_DIGEST = (
    "6fa62483c435c4cd1515cf0c1b3548d55995a808778b00f2960f16f98f598326")

# (case reference, model) -> fingerprint of the replay a workstation
# makes of the shipped recording (see ``_replay``), or None
# where the replay returns no trace.  Replayers drive their own
# schedulers - FixedScheduler (full), RoundRobinScheduler (value),
# SyncOrderScheduler around RandomScheduler (output), RandomScheduler
# inside synthesis (failure) and GuidedOrderScheduler (rcse) - so these
# pin the constrained scheduling paths no production-run digest reaches.
# Corpus seeds 0-11 under every core model, and every app under the
# two models with constrained schedulers (msg_server's rcse replay is
# left out: the output replay's sync-order search is the one that takes
# seconds, and it is the one pinned below).
GOLDEN_REPLAY_DIGESTS = {
    ("corpus:0", "full"):
        "4ab5de6ec5ec4abf069d25035f868a43eb9431e71aaea80fa5a5d49014071e67",
    ("corpus:0", "value"):
        "1af0ff2c6a79077a5703e3cc794b61bba37a8ff45d990ea07902c0caffb7b48a",
    ("corpus:0", "output"):
        "13b7523d15d86494522bc49eecf06601274974278ff79c05f12835bf249dadb9",
    ("corpus:0", "failure"):
        "788f634cc73d1bc2ca6089ac89f1824059df479db3463e3fbec0676a462125cc",
    ("corpus:0", "rcse"):
        "83c247475d389b6c1dfed9a9008eaa97453d308748354b60a1d1c4b95ce43a42",
    ("corpus:1", "full"):
        "20c48a0f64e0354721cf59b49bdd0dec05bc6f1d586a9146649fb4b45cd93dfe",
    ("corpus:1", "value"):
        "00388ded8be2bace6201beba93c5840fab13adc7e9d01c92bc4ff69d3f3622ca",
    ("corpus:1", "output"): None,
    ("corpus:1", "failure"):
        "20c48a0f64e0354721cf59b49bdd0dec05bc6f1d586a9146649fb4b45cd93dfe",
    ("corpus:1", "rcse"):
        "33c0fadc520d6985330b445afa7968660c0b0967ca348e1aad9ce02e823e1134",
    ("corpus:2", "full"):
        "0eca78b76937f43bc78c4ad152d920a3c8e7b0fa98473f022c9930d3eb22840a",
    ("corpus:2", "value"):
        "4fa84265619d124c476a9e91776a1a91ef2f020c2c1f8aab99a7aa0235cea188",
    ("corpus:2", "output"):
        "70ea1ae3969c836d06960080b215409625b9cc22e5822ba85f0f4eb7d3a1d471",
    ("corpus:2", "failure"):
        "ce62afe1bd389ac838f46f354fab759f63ce1d9a487075d102d3cb669d9f568f",
    ("corpus:2", "rcse"):
        "70ea1ae3969c836d06960080b215409625b9cc22e5822ba85f0f4eb7d3a1d471",
    ("corpus:3", "full"):
        "58be7e6dd5e9e8d2424c083aaa011bd7813c54b2d67d393f8c3ec240d5425771",
    ("corpus:3", "value"):
        "5db0891ea1fcc70e4723591ec632964b3eef3fbcd69462115adb4d9914fdaaf2",
    ("corpus:3", "output"):
        "cebfffc4befe8f3ca02509c6a5d212d649552dd4f74a635857f03615767d6170",
    ("corpus:3", "failure"):
        "09e859606ba234df95550489b6ba32a7836bf26ff831845bf3daa9e08261812e",
    ("corpus:3", "rcse"):
        "9d5bb559340b9c67c4dfbd31e1707edf7ebb990fc9ea180241546d5e717557ab",
    ("corpus:4", "full"):
        "9086d85990230b8b0cff4edba4ceccedf6c0f69bf38a4175062c8cbbad070703",
    ("corpus:4", "value"):
        "9086d85990230b8b0cff4edba4ceccedf6c0f69bf38a4175062c8cbbad070703",
    ("corpus:4", "output"):
        "9086d85990230b8b0cff4edba4ceccedf6c0f69bf38a4175062c8cbbad070703",
    ("corpus:4", "failure"):
        "26e93c9ffc4ca965ebd9b23f9c9dbfa719fe5a7c63c123028669edfba51e1415",
    ("corpus:4", "rcse"):
        "9086d85990230b8b0cff4edba4ceccedf6c0f69bf38a4175062c8cbbad070703",
    ("corpus:5", "full"):
        "40e92f13110ee9b92742f886d70d73b611580602581a0695b84a661c639e7f89",
    ("corpus:5", "value"):
        "64547e6ff0f4c06c21f08601db2ca2b9951147474922bb78b1fc8fd47dac416a",
    ("corpus:5", "output"): None,
    ("corpus:5", "failure"):
        "5a415cd8a01a5dc4c6cba09a04c250feeb01688f8c198e854f23436f0dc6eabc",
    ("corpus:5", "rcse"):
        "dc28c1e847759053aa9f67646e79665156a31e62e7313145a716895667e7a0bb",
    ("corpus:6", "full"):
        "b307f660c858be4dc39859d2461bcc7988aa1e745f398a1bc0b80983d0f5ba4d",
    ("corpus:6", "value"):
        "e36aa76095e271a32c6dafa785d7e9abe701412264148bfc57a62079d6dfefa4",
    ("corpus:6", "output"):
        "8a3fbecb5f441d9deb22e453830b85b90f560e2598bb487d3b0f023f6f466128",
    ("corpus:6", "failure"):
        "77dc5508b3626ca5ad92a8f2c3ed0c4cd7d999e21d40e6f07bb529eb221243ee",
    ("corpus:6", "rcse"):
        "7cac41382e6f1b1c3cec6d61969a76d4393d94c0ca2783d0acc05f15a730b446",
    ("corpus:7", "full"):
        "ba3c5bd39c6bb5c260f609f80d56b4b0e92f4d8d6e39beaaec99b8b4bf40003a",
    ("corpus:7", "value"):
        "82a239af8bd28c8fe4c653c53cdaf5d2083e72b64c231425338eb27591958241",
    ("corpus:7", "output"): None,
    ("corpus:7", "failure"):
        "ba3c5bd39c6bb5c260f609f80d56b4b0e92f4d8d6e39beaaec99b8b4bf40003a",
    ("corpus:7", "rcse"):
        "a7feb40ed607f45c355844e035f3fec3cfc0433e0548a33377e9335a130cfbdc",
    ("corpus:8", "full"):
        "e65e78a913a5151782cbd029b24350dfed8209702e730d7d3547945b17612506",
    ("corpus:8", "value"):
        "9e5fe9370f5f46c9c9a4445e759efd4dae5fba8d12a0ffda8b9b85a8ca896466",
    ("corpus:8", "output"):
        "325130a99d2c4235d487df3affaa9e53dfd92862b445ae90d31797735206bf34",
    ("corpus:8", "failure"):
        "d2b37a8ef1087d2e1abcf3ec7e2db22ac56ec780b4000025a649a06b98b88e59",
    ("corpus:8", "rcse"):
        "325130a99d2c4235d487df3affaa9e53dfd92862b445ae90d31797735206bf34",
    ("corpus:9", "full"):
        "a24228dc579e4ecaccb4473454186c6d8028af6ecbaf112fbf9c4f760056f115",
    ("corpus:9", "value"):
        "e9617f44a6b864e498e49a53a96fe0d1301b460fe890cba948d2e907480741d5",
    ("corpus:9", "output"):
        "020dec70d57c2827f60d7b47503e1e621dc5899fc29c753032258e2a1a42f65c",
    ("corpus:9", "failure"):
        "92bde8892467ba53f2318e6cdd13a28ad6652300a885e68f166cde7cb57eb4db",
    ("corpus:9", "rcse"):
        "25c01df3f223bd8dd5a55f5cf957fc41f91c889550a5fcbae3a9b41be3edb44e",
    ("corpus:10", "full"):
        "9d19570744b2a24059ee0b56d52272858e3dbcf948a5f159a4e4c032aabdec16",
    ("corpus:10", "value"):
        "9d19570744b2a24059ee0b56d52272858e3dbcf948a5f159a4e4c032aabdec16",
    ("corpus:10", "output"):
        "9d19570744b2a24059ee0b56d52272858e3dbcf948a5f159a4e4c032aabdec16",
    ("corpus:10", "failure"):
        "9d19570744b2a24059ee0b56d52272858e3dbcf948a5f159a4e4c032aabdec16",
    ("corpus:10", "rcse"):
        "9d19570744b2a24059ee0b56d52272858e3dbcf948a5f159a4e4c032aabdec16",
    ("corpus:11", "full"):
        "1bb91fb60ab513fb7a3740c120246cee3969aa2db43daf1bf26e1e99ba092ea3",
    ("corpus:11", "value"):
        "497d24a7530137c8f06df801e1aa932c330cacdb56458dcfd5681d1e3b004e41",
    ("corpus:11", "output"):
        "a043884bed0f9c15e6c8acff9c760457c7ebd000274440f20eb7396e2b7b2e15",
    ("corpus:11", "failure"):
        "4a815ce79291bf3ad0dcaf5ec018c47557838abeefd886dbdaf20274007b48d0",
    ("corpus:11", "rcse"):
        "0483ed911ddca00b3a035cd3003d011ccfd9a7223770ed5be5db00cc555dc904",
    ("app:adder", "output"):
        "a757cb559b6ed58c71c78e2bad9080c05119a9768d6a0952f166518f553b6df4",
    ("app:adder", "rcse"):
        "a757cb559b6ed58c71c78e2bad9080c05119a9768d6a0952f166518f553b6df4",
    ("app:bank", "output"): None,
    ("app:bank", "rcse"):
        "bfa141f139e9bf269bd71f247524f070218e773f06a87c32625a9c2ea1cd0a8d",
    ("app:deadlock", "output"):
        "340f92f443b751baa9a863b8b13c15f45ba20fb3a9feebd095809052046f64da",
    ("app:deadlock", "rcse"):
        "340f92f443b751baa9a863b8b13c15f45ba20fb3a9feebd095809052046f64da",
    ("app:large_request", "output"):
        "0989a1eb34948337d8d672b081994e7b8bb5239cc929f63bfa3e125a0d785662",
    ("app:large_request", "rcse"):
        "0989a1eb34948337d8d672b081994e7b8bb5239cc929f63bfa3e125a0d785662",
    ("app:overflow", "output"):
        "f2abb9c6cdcf747babbc7f209b4dadc76f0c96cb26e5fc12a9a1c3de049bbcb3",
    ("app:overflow", "rcse"):
        "f2abb9c6cdcf747babbc7f209b4dadc76f0c96cb26e5fc12a9a1c3de049bbcb3",
    ("app:racy_counter", "output"):
        "3c2d37b8adbe27bcbb2bd8dd0c22c16b951d2d8220c1b7c7c1f337a74ee164a5",
    ("app:racy_counter", "rcse"):
        "5da02dab50db9ae61363215e2df823a589ab8117a89c0f4a7d75c1559e8170c6",
    ("app:msg_server", "output"):
        "dafe7497afc0c8db1524b009c7de8acaa84498f79c47c451c2ce64d5339da1ba",
}

# (case reference, model) -> the replay's (attempts, inference_cycles):
# msg_server's output replay searches 26 inner-scheduler seeds under its
# recorded sync order, so these pin every sync-order pick of the
# rejected candidates too, not only of the accepted one.  The others pin
# each way a replay search ends: bank's output replay exhausts its 48
# inner seeds, corpus:9's is accepted after 16 rejected seeds, no seed of
# corpus:1's rcse replay lands the failure (its last run is the replay),
# and corpus:10's failure synthesis is accepted on its 193rd candidate.
GOLDEN_REPLAY_SEARCH = {
    ("app:msg_server", "output"): (26, 744_472),
    ("app:bank", "output"): (48, 30_423),
    ("corpus:9", "output"): (17, 1_241),
    ("corpus:1", "rcse"): (12, 4_972),
    ("corpus:10", "failure"): (193, 6_144),
}


def test_corpus_covers_all_expected_apps():
    assert set(GOLDEN_APP_DIGESTS) == set(ALL_APPS), \
        "new corpus app: add its golden digest"


@pytest.mark.parametrize("name", sorted(GOLDEN_APP_DIGESTS))
def test_app_golden_trace(name):
    case = ALL_APPS[name]()
    machine = case.run(SEED)
    assert machine.trace.fingerprint() == GOLDEN_APP_DIGESTS[name], (
        f"{name}: observable behaviour changed - step stream, schedule, "
        f"failure, outputs, or metered cycles diverged from the golden run")


def test_counter_workload_golden_trace():
    machine = run_program(assemble(COUNTER_SRC),
                          scheduler=RandomScheduler(seed=1))
    assert machine.steps == 4809
    assert machine.trace.fingerprint() == GOLDEN_COUNTER_DIGEST


def _replay(ref: str, model: str) -> ReplayResult:
    """Record at the case's failing seed (apps: the first failing seed),
    ship, receive and replay."""
    case = resolve_case(ref)
    session = DebugSession(case, model,
                           seed=getattr(case, "failing_seed", None))
    session.record()
    return DebugSession.receive(session.ship()).replay()


@pytest.mark.parametrize("ref,model", list(GOLDEN_REPLAY_DIGESTS))
def test_replay_golden_trace(ref, model):
    replay = _replay(ref, model)
    fingerprint = None if replay.trace is None else replay.trace.fingerprint()
    assert fingerprint == GOLDEN_REPLAY_DIGESTS[(ref, model)], (
        f"{ref} under {model}: the replay's observable behaviour changed")
    if (ref, model) in GOLDEN_REPLAY_SEARCH:
        assert (replay.attempts, replay.inference_cycles) == \
            GOLDEN_REPLAY_SEARCH[(ref, model)], (
            f"{ref} under {model}: the replay search changed")


def test_fingerprint_is_schedule_sensitive():
    """Different seeds must yield different fingerprints (sanity)."""
    a = run_program(assemble(COUNTER_SRC), scheduler=RandomScheduler(seed=1))
    b = run_program(assemble(COUNTER_SRC), scheduler=RandomScheduler(seed=2))
    assert a.trace.fingerprint() != b.trace.fingerprint()


def test_fingerprint_is_stable_across_reruns():
    a = run_program(assemble(COUNTER_SRC), scheduler=RandomScheduler(seed=1))
    b = run_program(assemble(COUNTER_SRC), scheduler=RandomScheduler(seed=1))
    assert a.trace.fingerprint() == b.trace.fingerprint()
