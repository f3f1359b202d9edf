"""What an explorer image shares instead of copying, and what it costs.

An image ``(blob, shared)`` keeps each write-once record it reaches in
``shared`` and only refers to it from the pickled blob, so a resumed
execution holds the very records its parent recorded.  That is sound
only while nothing assigns to those records after ``__init__``: these
tests watch every record every image shared, through whole searches.
The cost pin counts what images copy and share, machine-independently.
"""

import pickle

import pytest

from repro.mc import Explorer, ExplorerConfig, explore_schedules


class _Images:
    def __init__(self):
        self.taken = []         # every (blob, shared) image, in order
        self.snapshots = {}     # id -> (record, snapshot): keeps id alive


@pytest.fixture
def images(monkeypatch):
    """Spies on image dumps: keeps each image, and snapshots each shared
    record's fields (a deep pickle) the first time an image shares it."""
    images = _Images()
    take_image = Explorer._take_image

    def spy(self, run, execution):
        take_image(self, run, execution)
        image = run.images[tuple(run.taken)]
        images.taken.append(image)
        for record in image[1]:
            if id(record) not in images.snapshots:
                images.snapshots[id(record)] = (record, pickle.dumps(record))

    monkeypatch.setattr(Explorer, "_take_image", spy)
    return images


@pytest.mark.parametrize("options", [
    {},
    {"ops_actions": True},
    {"dissemination": "chain"},
], ids=["default", "ops-actions", "chain"])
def test_no_shared_record_changes_after_its_image_is_taken(images, options):
    result = Explorer(ExplorerConfig(
        depth=4, max_violations=0, **options)).run()
    assert result.ok and result.resumed
    assert len(images.snapshots) > 1000
    changed = [
        record for record, snapshot in images.snapshots.values()
        if pickle.dumps(record) != snapshot
    ]
    assert not changed, changed[:5]


#: The depth-3 search's images (``explore_schedules(peers=3, depth=3,
#: max_violations=0)``, the search ``tests/test_mc.py`` pins at 2,828
#: kernel events): how many, how many write-once records they share
#: (summed per image), and their blob bytes.  Before records were
#: shared the same 16 images copied 630,819 bytes and shared nothing;
#: while the checker trace kept one object per event, which every image
#: shared one by one, they read 3,343 shared records and 380,608 bytes.
IMAGES = 16
SHARED_RECORDS = 1661
BLOB_BYTES = 192814


def test_image_cost_is_pinned(images):
    result = explore_schedules(peers=3, depth=3, max_violations=0)
    assert (result.runs, result.resumed) == (36, 35)
    assert len(images.taken) == IMAGES
    assert sum(len(shared) for _b, shared in images.taken) == SHARED_RECORDS
    # A bound, not a pin: pickle's bytes may move across Python versions.
    assert sum(len(blob) for blob, _s in images.taken) <= 1.10 * BLOB_BYTES
