"""Pinned canonical reports of the 60 benchmark-pool instances.

The four pools are built in memory from the workload seeds in
``perfbench/pinned.json``, with ``perfbench/workloads.py``'s own
``generate``, ``load`` and ``solve``: each pool must match its pinned
digest, each instance its pinned outcome, and the sha256 of
``dumps_canonical(report_to_obj(report))`` the digest below.  A digest
changes only when a solver's output does: if that is intended, re-pin with
``PYTHONPATH=src python tests/test_pool_reports.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

import klinkage
from klinkage import jsonio

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402

with open(os.path.join(PERFBENCH, "pinned.json"), encoding="utf-8") as _fh:
    POOLS = json.load(_fh)["workloads"]


def _reports(name):
    """The pool's digest and, instance by instance, the solver's reports."""
    workload = workloads.WORKLOADS[name]
    texts = [json.dumps(obj, sort_keys=True, separators=(",", ":"))
             for obj in workload.generate(klinkage, POOLS[name]["seed"])]
    pool = workloads.sha256("".join(workloads.sha256(t.encode()) for t in texts).encode())
    reports = []
    for g, text in enumerate(texts):
        obj = jsonio.parse_json(text, f"g{g:03d}.json")
        d = workload.load(klinkage, jsonio, obj, f"g{g:03d}.json")
        reports += [workload.solve(klinkage, d, [tuple(p) for p in pairs])
                    for pairs in obj["pairs"]]
    return pool, reports


def digest(report) -> str:
    text = jsonio.dumps_canonical(jsonio.report_to_obj(report))
    return hashlib.sha256(text.encode()).hexdigest()


# workload -> sha256 of each instance's canonical report, in pool order;
# recorded at b684983, before the Menger search settled masks
PINNED = {
    'sc-audited': [
        '667103267505bb6b45ed547ceab20544a0d3fd448a1c014603bc0b9bdcb3427f',
        '044ceec81a8a43363fee6a52b9b2ee587ac33a9803596f79f99023dd6f77bdc8',
        '9a6219251eb44a07ceea5a876032b38894f7383d0ca08b71bd07c4516361f75f',
        '9a6219251eb44a07ceea5a876032b38894f7383d0ca08b71bd07c4516361f75f',
        '6be9522bf82c407bb7fb18a999d946d61dce1ff17653e6e0f11d0e9dd65a92c0',
        'ba629661c592d5cff86290399312b76691cdd37834e465a635aebe62cacb4cae',
    ],
    'sc-large': [
        'ee8adcf0d9d8e52c0555474f0a9a38f43da4ec4dd9d5632dc08499a9b223a815',
        'a1b42d70dc6a8fbd80e09a6b0ef2fae518d81b35c84fc01deef1d1498ab00e78',
        '9574439d305fca26b19b9c7114681534b536f6dc5a89b174ced3d452b3360262',
        '7259d3d5c85e43250fc3047de7647aa8afae863b9075a7c9403f7f1b9a97c480',
        '0f71f4e0d70bb9dc4cbb7be5cb2dad758198509894e6c08d61eac080beea476c',
        '74123130615aff93318486b75141d694a64fadeddac2e19dce1c32e5b6a3f497',
    ],
    'lqt': [
        'f4716b4334b2d14599c26993fc7932f82ec8b0763a01aac51bd0fa08224d64ba',
        '738d985d032d95695774187a7ca3aaecfb0c2e3f2e748518eb653bbb00519719',
        'f615cdb2c396ab69bd7020706f210700ebe379f882ff0dcffb2a4f97f94ddcf2',
        '3664095e010b3dd182f6673b66b4b374060f9de4963492d23a9b82b1407469bf',
        'b3d35321eb135d0ff61d4c49a05e3bbe7597513c714a9c2142082da0e0ccbe4c',
        '6e60123cb498a710260f6567dd7d052d0752b1f7aea6f3ac25ca309e39309b44',
        'e8f348e5a1ecdf0426837d8f81a562485bb31bc597caa68e2689c1cee2cd7cfc',
        '9a16df32a295e3b020ca626c536ba2de0746b4ccfc7f8c65e88aa31aae3afa00',
        '45f988f350977342f9892339aab775bf4d522bf9f36ad2f556054b7077ab2f8b',
        '06493e0c308f847823bcfc6ca4af2039aa03671c238b7f44aa1cf80ee1c6726b',
        '59e57503b7f0ccccec4f92cb2c11630f7549b807eb48742014f1733611118286',
        '9a9ff6fcb18208716fce3574181e93eb1c601d5bdafdaeb0291fa9f6653bb728',
        '3648438532b6bdb8619f6790e467c1a21ff88ebdc7107f6c3b3d92f75f79822d',
        '71b84fff9351667155352b1620fe042e086fc99c27da46c90b5c0e5134bd33fb',
        'e6de520fff926ced5ac51cd270cdcfa8050c998df0d2b44da95cdca781c5b412',
        'ca37ef7e20153c8222a1f139b23da26d3b115b1c6037004d4f33876717e28116',
        '6f1234911130c9d8be1ea5fdb1c800ff266f3d1fa8019dd298ea5d7494055805',
        'dc94c253809da77691eaff52064fc430399afe42ecd0c17704d56b1467849217',
        '7bc6f59c6eca78a6b835a1bff822818c3c2f2067ecca7292381b0de413201493',
        '48bec03d8230d62b79ac04e14e76621dec1b169e84dbea0eed3486676899d87b',
        'a11c46c25e27765d801c8bc6e863d0456d11190be57f63e753847bb8837d5e82',
        'cfde051c75d3c12663a857686b9185cd28e2f5a8699f2091ef9f56c947531a41',
        '5a655ed052f2f5ab9d83b65ab2882f0e9b7d592bad5e7d78f90abb1b540ce045',
        '62d5bdb4d701169ffcb4481bd08c5135f1c1184b5e2b268bc6e8579808ad20d3',
    ],
    'composition': [
        '9e8f79f98a0f4608a07699a23cbce4678ddb3d751a33aa7fb635e1f49614cdbd',
        'fce615265d862ff7c84f62e6fa62c4e66b443627c7295e7f83ee29419045a312',
        '1ca7ee9c41a3f011a67eb9943740332a6f920db3608655afaf96cc927a2051d3',
        '7294896763f57c81eff0be79b6a31aa91e1ec4dbd0e13144ef38c82ee87f80bf',
        '2b1fa91b225d1be133544b629d8f35d808dc6569020f691c7fc438f1a77f70f2',
        '1e34780fdcc011b912c0d25723c81902785ff50bc08df8bb01c5ec2810d3091e',
        '717c96dc140dfb330b2d6650a49ee666ad16429f25c2ae0ab42cda7da27ef3ac',
        '1e34780fdcc011b912c0d25723c81902785ff50bc08df8bb01c5ec2810d3091e',
        '2e36ca3c7004923a2a5fb5e4fd42575b4cb64eb8cbf86e61c9b36f0204b16ae6',
        '7e638e4e3eda6412595aab9b34f3d89770ec698de293d357e88b5ebe703da83a',
        '40ee220a82f89cf817af07306b8c563117bd07d20af8361c5b2b08043710d020',
        '2e5c1a528b3e0faead534787d274d3f7ed48470d7bc90237326f46a75703938f',
        '388b7f0bb1dbfe6c40a7aa1e6dd8ccfaaafc950e23dd1bdba0b722bfa553a797',
        '656753b743f4dcb55b0b85fd348f9fd26a9970c5163129b1662832721c3ab9d2',
        '4adc590d31453542973a869ed438fc9e4cc70f4bba25e85da4256799dd7f64b2',
        '2e5c1a528b3e0faead534787d274d3f7ed48470d7bc90237326f46a75703938f',
        '40ee220a82f89cf817af07306b8c563117bd07d20af8361c5b2b08043710d020',
        '21a58241cc1321253ebdbef1cb878a1367f6d3c6803439c659044250315fab8b',
        'b286ec4b06ae32671fb0bbe6cf0c342ffcef63a841baf5eb7d472bb9acad435e',
        '10dff646d5a081db360670f1b0ef9dec6ed373d30903877bc8b1c6d060da85a2',
        '3226618a2ed1e49339ed67efd409f7a0c1b0926fbb8401dc2187d7cb86c5b7e6',
        '3226618a2ed1e49339ed67efd409f7a0c1b0926fbb8401dc2187d7cb86c5b7e6',
        '40ee220a82f89cf817af07306b8c563117bd07d20af8361c5b2b08043710d020',
        '52dbdcae1b32898fa6d0c2f85a626e9beebe80cad682d7a013dae38f19d1be6b',
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pool_reports_pinned(name):
    pool, reports = _reports(name)
    assert pool == POOLS[name]["sha256"]
    assert [r.outcome for r in reports] == POOLS[name]["expected"]
    assert [digest(r) for r in reports] == PINNED[name]


def test_every_pool_pinned():
    assert set(PINNED) == set(POOLS) == set(workloads.WORKLOADS)
    assert sum(map(len, PINNED.values())) == 60


if __name__ == "__main__":
    for name in sorted(workloads.WORKLOADS):
        print(f"    {name!r}: [")
        for report in _reports(name)[1]:
            print(f"        {digest(report)!r},")
        print("    ],")
