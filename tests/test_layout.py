"""Pinned layout digests: every stored word of a fixed build, per combo.

Each of the eight trie_repr x label_map combinations builds the same
2,000 words from 16 slots at offset limit 4, half of them plurals of the
other half so that step nodes form, then deletes and revives some of them.
A sha256 over the node table's word arrays, the displacement tiers, every
label group, the items and the counters must equal the pinned value. A
change that means to alter the stored layout re-pins these digests and
says so; any other change must leave them as they are. To print them:

    PYTHONPATH=src:tests python tests/test_layout.py
"""

import hashlib

import pytest

from conftest import ALL_COMBOS, random_words
from dynpdt import Config, Dictionary
from dynpdt.trie_repr import _SMALL_ESCAPE

PINNED = {
    "pbt-plm": "ab68626f9e2ccc30a4e2b35959565681367ec1405000dca88de8aaa5b93c8610",
    "pbt-slm": "7e441a2ba2d49313fdf51d9c4dd5b9b900c1ecfef2176b2f414d147c97219274",
    "cbt-plm": "c0cd178aaf864a59822232562cc01b8c1ffe4b898ee3a5d2ee131e8c33b7f537",
    "cbt-slm": "85879c4d68b75be5ef84cbc540cea3bb3945c279162ef68b379df50b6c5a6297",
    "pfkt-plm": "04e426b0c82d70a97523ab4f27ea3c9a05b1e9f13eb4c5afbb56e34e15054949",
    "pfkt-slm": "d5ed7872b577501aab93a6149a0ea3d317440878916217d637ecf8e921daedcf",
    "cfkt-plm": "3efbba62b2c205bd623ff65cb98f271cc4ba4c41ecf40b8f694ffe97d29f1484",
    "cfkt-slm": "9221cdbfd8105337eddd11ded24d93a6c8cbde5890b189f726a8db3548b9aa29",
}


def build(repr_, nlm):
    d = Dictionary(Config(trie_repr=repr_, label_map=nlm, offset_limit=4,
                          initial_capacity=16))
    words = random_words(1000, seed=12)
    # a plural branches off its word's label at the word's end, often past
    # the offset limit, so step nodes form
    keys = words + [w + b"s" for w in words]
    for i, k in enumerate(keys):
        d.insert(k, i)
    for k in keys[::3]:
        d.delete(k)
    for i, k in enumerate(keys[::6]):
        d.insert(k, 10_000 + i)
    return d


def layout_digest(d) -> str:
    b = d._backend
    fields = [(b.root_id, b.capacity, b.node_count, b.growth_events, len(d))]
    # word arrays as int lists, so the digest does not depend on byte order
    for name in ("_table", "_quot", "_occ", "_ids"):
        if hasattr(b, name):
            fields.append((name, getattr(b, name)._words.tolist()))
    if hasattr(b, "_disp"):
        disp = b._disp
        fields.append(disp._base._words.tolist())
        fields.append([(j, disp.get(j)) for j in b._used_slots()
                       if disp._base.get(j) == _SMALL_ESCAPE])
    fields.append(d._nlm._groups)
    fields.append(sorted(d.items()))
    h = hashlib.sha256()
    for f in fields:
        h.update(repr(f).encode())
    return h.hexdigest()


@pytest.mark.parametrize("repr_,nlm", ALL_COMBOS, ids=lambda c: c)
def test_layout_digest_is_pinned(repr_, nlm):
    assert layout_digest(build(repr_, nlm)) == PINNED[f"{repr_}-{nlm}"]


if __name__ == "__main__":
    for repr_, nlm in ALL_COMBOS:
        print(f'    "{repr_}-{nlm}": "{layout_digest(build(repr_, nlm))}",')
