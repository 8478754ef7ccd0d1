"""Pinned layout digests: where every node sits, and every stored word.

Each of the eight trie_repr x label_map combinations builds the same
2,000 words from 16 slots at offset limit 4, half of them plurals of the
other half so that step nodes form, then deletes and revives some of them.
Two sha256 digests are pinned per combo:

* the placement digest covers the counters, each used slot with the key it
  decodes to and the id it holds, every label group and the items. It
  says nothing about how a table marks vacancy or stores displacements,
  so only a change to hashing, probing or growth order may re-pin it.
* the storage digest also covers the node table's word arrays and the
  displacement tiers. A change that means to alter the stored layout
  re-pins it and says so; any other change must leave it as it is.

To print both:

    PYTHONPATH=src:tests python tests/test_layout.py
"""

import hashlib

import pytest

from conftest import ALL_COMBOS, random_words
from dynpdt import Config, Dictionary
from dynpdt.trie_repr import _SMALL_ESCAPE

# a plain table and its compact twin put every node in the same slot, so
# their placement digests agree
PLACEMENT = {
    "pbt-plm": "7bca526298b7cf9c62977da05ea4b847fda5c275ea45e75d7c11dff712df5424",
    "pbt-slm": "6a5161a36cec0c3a548f09a58282753437906f1acd8e2f39829391e21e0a8102",
    "cbt-plm": "7bca526298b7cf9c62977da05ea4b847fda5c275ea45e75d7c11dff712df5424",
    "cbt-slm": "6a5161a36cec0c3a548f09a58282753437906f1acd8e2f39829391e21e0a8102",
    "pfkt-plm": "59685f47f42f1fa918619c51d430213b67d946d6375d9ac867eac48ed5c4af58",
    "pfkt-slm": "89e3737f095bf1a9320d92c85d39684d1d699f604441b770251e0efd40b9fd5f",
    "cfkt-plm": "59685f47f42f1fa918619c51d430213b67d946d6375d9ac867eac48ed5c4af58",
    "cfkt-slm": "89e3737f095bf1a9320d92c85d39684d1d699f604441b770251e0efd40b9fd5f",
}

STORAGE = {
    "pbt-plm": "ab68626f9e2ccc30a4e2b35959565681367ec1405000dca88de8aaa5b93c8610",
    "pbt-slm": "7e441a2ba2d49313fdf51d9c4dd5b9b900c1ecfef2176b2f414d147c97219274",
    "cbt-plm": "302e597c1eaf1cfe4e702c78b9ddc8cbccaf547989a0c06a1f73b587c484d274",
    "cbt-slm": "f0f6d48b0dc63a5aba4f560fb4c3a5e15f105e163ee0345429f95d9cc1f1be87",
    "pfkt-plm": "04e426b0c82d70a97523ab4f27ea3c9a05b1e9f13eb4c5afbb56e34e15054949",
    "pfkt-slm": "d5ed7872b577501aab93a6149a0ea3d317440878916217d637ecf8e921daedcf",
    "cfkt-plm": "c5911acaaff4a509e573ed0e12136bce812d2b8fc3374937fba0cc6be7adc901",
    "cfkt-slm": "3a1118f9a23aeb710cf9d754161c2d3ac10d0c2a5a6025e084b2cf71aade25b8",
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


def _digest(fields) -> str:
    h = hashlib.sha256()
    for f in fields:
        h.update(repr(f).encode())
    return h.hexdigest()


def _counters(d):
    b = d._backend
    return (b.root_id, b.capacity, b.node_count, b.growth_events, len(d))


def placement_digest(d) -> str:
    b = d._backend
    ids = b._ids.get if hasattr(b, "_ids") else (lambda j: j)
    return _digest([_counters(d),
                    [(j, b._slot_key(j), ids(j)) for j in b._used_slots()],
                    d._nlm._groups,
                    sorted(d.items())])


def storage_digest(d) -> str:
    b = d._backend
    fields = [_counters(d)]
    # word arrays as int lists, so the digest does not depend on byte order
    for name in ("_table", "_quot", "_ids"):
        if hasattr(b, name):
            fields.append((name, getattr(b, name)._words.tolist()))
    if hasattr(b, "_disp"):
        disp = b._disp
        fields.append(disp._base._words.tolist())
        fields.append([(j, disp.get(j)) for j in b._used_slots()
                       if disp._base.get(j) == _SMALL_ESCAPE])
    fields.append(d._nlm._groups)
    fields.append(sorted(d.items()))
    return _digest(fields)


@pytest.mark.parametrize("repr_,nlm", ALL_COMBOS, ids=lambda c: c)
def test_placement_digest_is_pinned(repr_, nlm):
    assert placement_digest(build(repr_, nlm)) == PLACEMENT[f"{repr_}-{nlm}"]


@pytest.mark.parametrize("repr_,nlm", ALL_COMBOS, ids=lambda c: c)
def test_layout_digest_is_pinned(repr_, nlm):
    assert storage_digest(build(repr_, nlm)) == STORAGE[f"{repr_}-{nlm}"]


if __name__ == "__main__":
    for name, digest in (("PLACEMENT", placement_digest), ("STORAGE", storage_digest)):
        print(f"{name} = {{")
        for repr_, nlm in ALL_COMBOS:
            print(f'    "{repr_}-{nlm}": "{digest(build(repr_, nlm))}",')
        print("}")
