"""Pinned layout digests: where every node sits, and every stored word.

Each of the eight trie_repr x label_map combinations builds the same
2,000 words from 16 slots at offset limit 4, half of them plurals of the
other half so that step nodes form, then deletes and revives some of them.
Three sha256 digests are pinned per combo:

* the records digest covers the counters, each used slot with the key it
  decodes to and the id it holds, every (id, label, value) the label map
  holds and the items. It says nothing about how either structure lays
  out its bytes, so a layout change must leave it as it is.
* the placement digest also covers every label group's bytes. It says
  nothing about how a table marks vacancy or stores displacements, so only
  a change to hashing, probing, growth order or the label layout may
  re-pin it.
* the storage digest also covers the node table's word arrays and the
  displacement escape map. A change that means to alter the stored layout
  re-pins it and says so; any other change must leave it as it is.

To print all three:

    PYTHONPATH=src:tests python tests/test_layout.py
"""

import hashlib

import pytest

from conftest import ALL_COMBOS, random_words
from dynpdt import Config, Dictionary
from dynpdt.trie_repr import _SMALL_ESCAPE
from oracles import packed_entry

# a plain table and its compact twin put every node in the same slot, so
# their digests agree; the records digest also agrees across label maps
RECORDS = {
    "pbt-plm": "8876a57b321240eb1987245359cf4404882b13d8d5e22c313ac3d336f084582d",
    "pbt-slm": "8876a57b321240eb1987245359cf4404882b13d8d5e22c313ac3d336f084582d",
    "cbt-plm": "8876a57b321240eb1987245359cf4404882b13d8d5e22c313ac3d336f084582d",
    "cbt-slm": "8876a57b321240eb1987245359cf4404882b13d8d5e22c313ac3d336f084582d",
    "pfkt-plm": "c0751494d0d5503b84d29b0a46b9ac672741421cd0b4d519646107f95f8d14d2",
    "pfkt-slm": "c0751494d0d5503b84d29b0a46b9ac672741421cd0b4d519646107f95f8d14d2",
    "cfkt-plm": "c0751494d0d5503b84d29b0a46b9ac672741421cd0b4d519646107f95f8d14d2",
    "cfkt-slm": "c0751494d0d5503b84d29b0a46b9ac672741421cd0b4d519646107f95f8d14d2",
}

PLACEMENT = {
    "pbt-plm": "bff4428c464730a29da65aae2b505e83438824af1f916ca825d5f848586f6c1f",
    "pbt-slm": "3a8ed9a99bfd56f04534ced118c897b969cd527239f97376f3a9cb47dcdf0814",
    "cbt-plm": "bff4428c464730a29da65aae2b505e83438824af1f916ca825d5f848586f6c1f",
    "cbt-slm": "3a8ed9a99bfd56f04534ced118c897b969cd527239f97376f3a9cb47dcdf0814",
    "pfkt-plm": "9e8689a958e49f958ebc83efb63c5d8f9aade931bfee1b37a18c9dda9c190f3b",
    "pfkt-slm": "9464a9f3d19cef2f8e4fc9be8feab5bf2678aeefd8360c7be8b5de3a4db26a0e",
    "cfkt-plm": "9e8689a958e49f958ebc83efb63c5d8f9aade931bfee1b37a18c9dda9c190f3b",
    "cfkt-slm": "9464a9f3d19cef2f8e4fc9be8feab5bf2678aeefd8360c7be8b5de3a4db26a0e",
}

STORAGE = {
    "pbt-plm": "f8473dafd8bd5e364cf1686782e7da7fb162ed7ba2a1348b4549dbee699cc4eb",
    "pbt-slm": "cff1a33edaafdebdbcd14132df67ee0b969eee6e602af63f9381895745d032cd",
    "cbt-plm": "adf88dd46c68aa4a73f39933f8aaa1e0519425380331d24768390a05067f3edf",
    "cbt-slm": "05ec0436fc9833bea62d819a929008b8342ea2c1020c09c148c9b558291c85da",
    "pfkt-plm": "8c7ff1da4fa645abfe37503f84b5946ebd2e1d48a6ac7a91b9b85b5184da29d5",
    "pfkt-slm": "f164518cc55aaf6487a3b5b560616b6321c94fde08f79573eb977a1e3ca5b1a0",
    "cfkt-plm": "3705f29ca0b421a098c055a0a34cb6529780aafbbbcbe7eb8a3bbcdf9c3bbb16",
    "cfkt-slm": "721e23f3716a41e63297ed3c4303ce05a7f8b0c0a936f880155f4b52dc9e29b6",
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


def _slots(d):
    b = d._backend
    dense = hasattr(b, "_ids")
    return [(j, b._slot_key(j), packed_entry(b._ids, b._cap_bits, j) if dense else j)
            for j in b._used_slots()]


def records_digest(d) -> str:
    records = sorted((nid, p.label, p.value) for nid, p in d._nlm.iter_items())
    return _digest([_counters(d), _slots(d), records, sorted(d.items())])


def placement_digest(d) -> str:
    return _digest([_counters(d), _slots(d), d._nlm._groups, sorted(d.items())])


def storage_digest(d) -> str:
    b = d._backend
    fields = [_counters(d)]
    # word arrays as int lists, so the digest does not depend on byte order
    for name in ("_table", "_quot", "_ids"):
        if hasattr(b, name):
            fields.append((name, getattr(b, name).tolist()))
    if hasattr(b, "_disp"):
        fields.append(b._marks.tolist())
        fields.append([(j, b._disp.get(j)) for j in b._used_slots()
                       if packed_entry(b._marks, 4, j) == _SMALL_ESCAPE])
    fields.append(d._nlm._groups)
    fields.append(sorted(d.items()))
    return _digest(fields)


@pytest.mark.parametrize("repr_,nlm", ALL_COMBOS, ids=lambda c: c)
def test_records_digest_is_pinned(repr_, nlm):
    assert records_digest(build(repr_, nlm)) == RECORDS[f"{repr_}-{nlm}"]


@pytest.mark.parametrize("repr_,nlm", ALL_COMBOS, ids=lambda c: c)
def test_placement_digest_is_pinned(repr_, nlm):
    assert placement_digest(build(repr_, nlm)) == PLACEMENT[f"{repr_}-{nlm}"]


@pytest.mark.parametrize("repr_,nlm", ALL_COMBOS, ids=lambda c: c)
def test_layout_digest_is_pinned(repr_, nlm):
    assert storage_digest(build(repr_, nlm)) == STORAGE[f"{repr_}-{nlm}"]


if __name__ == "__main__":
    for name, digest in (("RECORDS", records_digest), ("PLACEMENT", placement_digest),
                         ("STORAGE", storage_digest)):
        print(f"{name} = {{")
        for repr_, nlm in ALL_COMBOS:
            print(f'    "{repr_}-{nlm}": "{digest(build(repr_, nlm))}",')
        print("}")
