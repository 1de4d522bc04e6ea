"""The cell-table cache behind ``ingest_csv``: a hit skips the parse and
gives the curve a parse gives, anything else is a miss that parses, and no
state of the cache changes a report, an exit code or an error message."""
import contextlib
import errno
import io
import marshal
import os
import tempfile
import zlib
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import write_csv
from fairaudit import AuditError, BinScheme, cellcache, ingest, metrics
from fairaudit.cli import EXIT_INPUT, EXIT_OK, main
from fairaudit.ingest import DatasetConfig, IngestError, ingest_csv
from fairaudit.metrics import curve_from_tallies

BINS = BinScheme(edges=(0.0, 5.0, 10.0))
BIN_SPEC = "0-5=low,5-10=high"

#: Two groups over both bins, with positives and negatives in each group.
ENTRIES = [("a", 2.0, 2, 1), ("a", 7.0, 1, 0), ("b", 3.0, 0, 2),
           ("b", 9.0, 1, 1)]


def cache_dir():
    return Path(os.environ["XDG_CACHE_HOME"]) / "fairaudit"


def cached_files():
    directory = cache_dir()
    return sorted(os.listdir(directory)) if directory.is_dir() else []


#: The parse, as ``parses`` finds it before counting its calls.
_count_cells = ingest._count_cells


def parsed(config):
    """The curve of a parse of the file, with no cache involved."""
    return curve_from_tallies(config.bins, _count_cells(config))


def ingests(path):
    """Whether the file ingests with no error, as found by a parse."""
    try:
        parsed(DatasetConfig(path, BINS))
    except AuditError:
        return False
    return True


def run(argv):
    """(exit code, stdout, stderr) of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def parses(monkeypatch):
    """The path of each parse ``ingest_csv`` makes, in order."""
    calls = []

    def counted(config):
        calls.append(config.path)
        return _count_cells(config)

    monkeypatch.setattr(ingest, "_count_cells", counted)
    return calls


@pytest.fixture
def data_csv(tmp_path):
    return write_csv(tmp_path / "data.csv", ENTRIES)


def test_a_second_ingest_reads_the_cache_not_the_rows(data_csv, parses):
    config = DatasetConfig(data_csv, BINS)
    first = ingest_csv(config)
    assert ingest_csv(config) == first == parsed(config)
    assert parses == [data_csv]
    # One entry, moved into place whole from a temporary file, in a
    # directory no one else may read.
    [entry] = cached_files()
    assert not entry.endswith(".tmp")
    assert cache_dir().stat().st_mode & 0o777 == 0o700


def test_an_entry_is_moved_into_place_from_a_temporary_file(
    data_csv, monkeypatch
):
    moves = []
    replace = os.replace

    def recorded(src, dst):
        moves.append((os.path.basename(src), os.path.basename(dst)))
        replace(src, dst)

    monkeypatch.setattr(cellcache.os, "replace", recorded)
    ingest_csv(DatasetConfig(data_csv, BINS))
    [(temp, entry)] = moves
    assert temp == f"{entry}.{os.getpid()}.tmp"
    assert cached_files() == [entry]


_LABEL = st.lists(
    st.sampled_from(["a", "b", ",", '"', "\t", "\r", "\n", "\r\n", " ", "|",
                     "\xe9", "✓", "\U0001f600"]),
    min_size=1, max_size=3,
).map("".join)
_ENTRY = st.tuples(
    _LABEL, st.sampled_from([0.0, 2.5, 5.0, 7.25, 10.0]),
    st.integers(0, 3), st.integers(1, 3),
)
#: Most drawn files ingest; these rows make a file exit 2, as does a file
#: of one group (and equalize exits 2 on a group with no negatives).
_BAD_ROWS = st.sampled_from([(), (), (), (("", 2.5, 1, 0),),
                             (("a", 11.0, 0, 1),)])


@settings(max_examples=60, deadline=None)
@given(st.lists(_ENTRY, min_size=1, max_size=8), _BAD_ROWS)
def test_reports_are_the_same_cold_warm_and_without_a_cache(entries, bad):
    entries = [*entries, *bad]
    with tempfile.TemporaryDirectory() as tmp:
        data = write_csv(Path(tmp) / "drawn.csv", entries)
        not_a_dir = Path(tmp) / "file"
        not_a_dir.write_text("")
        cache = Path(tmp) / "cache"
        for fmt in ("md", "json"):
            argv = ["equalize", "--input", data, "--bins", BIN_SPEC,
                    "--threshold", "p=0.5", "--format", fmt]
            runs = []
            for home in (cache, cache, not_a_dir):
                with mock.patch.dict(os.environ, XDG_CACHE_HOME=str(home)):
                    runs.append(run(argv))
            cold, warm, uncached = runs
            assert cold == warm == uncached
            # Only a successful ingest is stored.
            stored = os.listdir(cache / "fairaudit") if ingests(data) else []
            assert len(stored) == ingests(data)


def recounted(data):
    """The entry with one count changed and its CRC-32 left as it was: a
    body that still unmarshals, with the right key, but damaged."""
    key, table = marshal.loads(data[:-4])
    bins, counts, positives = table["a"]
    table["a"] = (bins, (counts[0] + 1, *counts[1:]), positives)
    return marshal.dumps((key, table)) + data[-4:]


class TestMisses:
    def test_a_same_size_edit_of_an_outcome_is_a_miss(self, data_csv, parses):
        config = DatasetConfig(data_csv, BINS)
        before = ingest_csv(config)
        edit_in_place(data_csv, b",1\r\n", b",0\r\n")
        after = ingest_csv(config)
        assert parses == [data_csv, data_csv]
        assert after == parsed(config) != before

    def test_a_same_size_edit_to_a_duplicate_id_is_a_miss(
        self, data_csv, parses
    ):
        dataset = ["audit", "--input", data_csv, "--bins", BIN_SPEC]
        assert run(dataset)[0] == EXIT_OK
        # Row 3's id a-1 becomes row 2's a-0.
        edit_in_place(data_csv, b"a-1,", b"a-0,")
        assert run(dataset) == (
            EXIT_INPUT, "",
            "error: row 3: duplicate id 'a-0' (first on row 2)\n",
        )
        assert parses == [data_csv, data_csv]

    @pytest.mark.parametrize("damage", [
        lambda data: data[:len(data) // 2],
        lambda data: data[:-1],
        lambda data: b"",
        lambda data: bytes(range(256)) * 4,
        recounted,
        # An intact entry of another key under this one's name.
        lambda data: cellcache._encode(("another key",),
                                       {"a": ((0,), (1,), (1,))}),
    ], ids=["half", "last_byte_cut", "empty", "garbage", "flipped_count",
            "foreign"])
    def test_a_damaged_entry_is_a_miss_and_is_replaced(
        self, data_csv, parses, damage
    ):
        config = DatasetConfig(data_csv, BINS)
        expected = ingest_csv(config)
        [entry] = cache_dir().iterdir()
        entry.write_bytes(damage(entry.read_bytes()))
        assert ingest_csv(config) == expected
        assert parses == [data_csv, data_csv]
        assert ingest_csv(config) == expected
        assert parses == [data_csv, data_csv]

    def test_a_directory_in_place_of_the_entry_is_a_miss(
        self, data_csv, parses
    ):
        config = DatasetConfig(data_csv, BINS)
        expected = ingest_csv(config)
        [entry] = cache_dir().iterdir()
        entry.unlink()
        entry.mkdir()
        for _ in range(2):
            assert ingest_csv(config) == expected
        assert parses == [data_csv] * 3
        assert cached_files() == [entry.name]  # no temporary file is left

    @pytest.mark.parametrize("config", [
        DatasetConfig("", BinScheme(edges=(0.0, 4.0, 10.0))),
        DatasetConfig("", BinScheme(edges=(0.0, 5.0, 10.0, 20.0))),
        DatasetConfig("", BINS, group_col="other"),
        DatasetConfig("", BINS, id_col="other_id"),
    ], ids=["edge", "bin_added", "group_col", "id_col"])
    def test_other_bins_or_columns_are_a_miss(self, tmp_path, parses, config):
        f = tmp_path / "data.csv"
        f.write_text("id,group,score,outcome,other,other_id\n"
                     "r1,a,2.0,1,x,s1\nr2,a,4.5,0,y,s2\nr3,b,7.0,1,x,s3\n"
                     "r4,b,9.0,0,y,s4\n")
        ingest_csv(DatasetConfig(str(f), BINS))
        config = config._replace(path=str(f))
        assert ingest_csv(config) == parsed(config)
        assert parses == [str(f), str(f)]
        assert len(cached_files()) == 2

    def test_other_bin_labels_are_a_hit(self, data_csv, parses):
        # Labels name the bins in a report but do not move a row.
        ingest_csv(DatasetConfig(data_csv, BINS))
        relabelled = BinScheme(edges=BINS.edges, labels=("lo", "hi"))
        curve = ingest_csv(DatasetConfig(data_csv, relabelled))
        assert curve.bins == relabelled
        assert curve == parsed(DatasetConfig(data_csv, relabelled))
        assert parses == [data_csv]

    def test_an_edit_to_the_ingest_module_is_a_miss(
        self, data_csv, parses, tmp_path, monkeypatch
    ):
        # The module that parses the rows, and the one that builds the
        # stored table from them. A copy stands in for each, so that its
        # stat can change.
        config = DatasetConfig(data_csv, BINS)
        for module in (ingest, metrics):
            parses.clear()
            source = tmp_path / os.path.basename(module.__file__)
            source.write_bytes(Path(module.__file__).read_bytes())
            monkeypatch.setattr(module, "__file__", str(source))
            expected = ingest_csv(config)
            mtime = source.stat().st_mtime_ns
            os.utime(source, ns=(mtime, mtime + 1_000_000_000))
            assert ingest_csv(config) == expected
            assert ingest_csv(config) == expected
            assert parses == [data_csv, data_csv], module.__name__


def edit_in_place(path, old, new):
    """Replace the first ``old`` in the file by ``new`` of the same length,
    keeping the file's modification time."""
    assert len(old) == len(new)
    st = os.stat(path)
    data = Path(path).read_bytes()
    assert old in data
    Path(path).write_bytes(data.replace(old, new, 1))
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


@pytest.mark.parametrize("text, message", [
    ("id,group,score,outcome\nr1,a,2.0,1\nr2,b,tall,0\n",
     "row 3: unparseable score 'tall'"),
    ("id,group,score,outcome\nr1,a,2.0,1\nr1,b,3.0,0\n",
     "row 3: duplicate id 'r1' (first on row 2)"),
    # Every row parses, but a curve needs two groups.
    ("id,group,score,outcome\nr1,a,2.0,1\nr2,a,3.0,0\n",
     "need at least 2 groups, found 1"),
], ids=["bad_score", "duplicate_id", "one_group"])
def test_a_failed_ingest_is_parsed_every_time(tmp_path, parses, text, message):
    f = tmp_path / "bad.csv"
    f.write_text(text)
    dataset = ["audit", "--input", str(f), "--bins", BIN_SPEC]
    first = run(dataset)
    assert first[0] == EXIT_INPUT and message in first[2]
    assert run(dataset) == first
    assert parses == [str(f), str(f)]
    assert cached_files() == []


def test_an_input_that_changes_during_the_parse_is_not_stored(
    data_csv, monkeypatch
):
    # The entry is stored under the key of the bytes read before the parse;
    # tallies of other bytes, here of an edit made after the key was taken,
    # are not.
    config = DatasetConfig(data_csv, BINS)

    def edited_before_parse(config):
        edit_in_place(config.path, b",1\r\n", b",0\r\n")
        return _count_cells(config)

    original = Path(data_csv).read_bytes()
    expected = parsed(config)
    monkeypatch.setattr(ingest, "_count_cells", edited_before_parse)
    edited = ingest_csv(config)
    monkeypatch.setattr(ingest, "_count_cells", _count_cells)
    assert edited == parsed(config) != expected
    assert cached_files() == []
    # Stored under the key, the edit's tallies would be read for the
    # original bytes.
    Path(data_csv).write_bytes(original)
    assert ingest_csv(config) == expected


class TestCacheFailuresAreMisses:
    def report(self, data_csv):
        return run(["audit", "--input", data_csv, "--bins", BIN_SPEC])

    def test_cache_home_that_is_a_regular_file(
        self, data_csv, tmp_path, monkeypatch
    ):
        expected = self.report(data_csv)
        home = tmp_path / "file"
        home.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        assert self.report(data_csv) == self.report(data_csv) == expected
        assert home.read_text() == ""

    def test_cache_directory_others_may_read(self, data_csv, parses):
        directory = cache_dir()
        directory.mkdir(parents=True, mode=0o755)
        directory.chmod(0o755)
        expected = self.report(data_csv)
        assert self.report(data_csv) == expected
        assert parses == [data_csv, data_csv]
        assert cached_files() == []

    def test_cache_directory_that_is_a_symlink(
        self, data_csv, tmp_path, parses
    ):
        target = tmp_path / "elsewhere"
        target.mkdir(mode=0o700)
        cache_dir().parent.mkdir()
        cache_dir().symlink_to(target)
        expected = self.report(data_csv)
        assert self.report(data_csv) == expected
        assert parses == [data_csv, data_csv]
        assert os.listdir(target) == []

    @pytest.mark.parametrize("step", ["makedirs", "replace"])
    def test_unwritable_cache_directory(
        self, data_csv, parses, monkeypatch, step
    ):
        # What making the directory or moving an entry into it raises on a
        # read-only file system, whoever runs the test.
        def refused(*args, **kwargs):
            raise OSError(errno.EROFS, "Read-only file system")

        monkeypatch.setattr(cellcache.os, step, refused)
        expected = self.report(data_csv)
        assert self.report(data_csv) == expected
        assert parses == [data_csv, data_csv]
        assert cached_files() == []  # no temporary file is left

    def test_relative_cache_home_is_ignored(self, data_csv, monkeypatch,
                                            tmp_path):
        # The XDG rule: a relative XDG_CACHE_HOME is not used.
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.chdir(tmp_path)
        self.report(data_csv)
        assert not (tmp_path / "relative").exists()
        assert len(os.listdir(tmp_path / "home" / ".cache" / "fairaudit")) == 1

    def test_relative_home_is_a_miss(self, data_csv, parses, monkeypatch,
                                     tmp_path):
        # With no XDG_CACHE_HOME, a home directory that is not an absolute
        # path would put the cache under the working directory.
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", "relhome")
        monkeypatch.chdir(tmp_path)
        config = DatasetConfig(data_csv, BINS)
        assert ingest_csv(config) == ingest_csv(config) == parsed(config)
        assert parses == [data_csv, data_csv]
        assert os.listdir(tmp_path) == ["data.csv"]


def test_reading_the_input_fails_with_the_message_of_a_parse(
    data_csv, monkeypatch
):
    # The cache's read of the input comes first; its OSError is reported
    # as the parse's would be.
    def failing(*args, **kwargs):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(cellcache, "open", failing, raising=False)
    assert run(["audit", "--input", data_csv, "--bins", BIN_SPEC]) == (
        EXIT_INPUT, "", f"error: cannot read '{data_csv}': Input/output error\n"
    )


def test_a_path_that_is_not_a_regular_file_is_never_opened(
    tmp_path, monkeypatch
):
    opened = []

    def recorded(*args, **kwargs):
        opened.append(args)
        raise AssertionError("opened")

    for module in (cellcache, ingest):
        monkeypatch.setattr(module, "open", recorded, raising=False)
    with pytest.raises(IngestError, match="^not a regular file: "):
        ingest_csv(DatasetConfig(str(tmp_path), BINS))
    assert opened == []


def test_inputs_whose_checksums_collide_are_told_apart(
    tmp_path, parses, monkeypatch
):
    # A file can be made on purpose to share its size, CRC-32 and Adler-32
    # with another. Here every input shares them; a second file is still a
    # miss, because the key holds the input's BLAKE2b digest.
    monkeypatch.setattr(zlib, "crc32", lambda data, value=0: 0)
    monkeypatch.setattr(zlib, "adler32", lambda data, value=1: 1)
    first = write_csv(tmp_path / "first.csv", ENTRIES)
    # One outcome flipped: the same size, and the same ids.
    second = write_csv(tmp_path / "second.csv",
                       [*ENTRIES[:-1], ("b", 9.0, 2, 0)])
    assert os.path.getsize(first) == os.path.getsize(second)
    first_curve = ingest_csv(DatasetConfig(first, BINS))
    config = DatasetConfig(second, BINS)
    assert ingest_csv(config) == parsed(config) != first_curve
    assert parses == [first, second]


def test_entries_are_capped_and_the_oldest_go(tmp_path, parses, monkeypatch):
    monkeypatch.setattr(cellcache, "MAX_ENTRIES", 3)
    configs = []
    for i in range(5):
        path = write_csv(tmp_path / f"data{i}.csv",
                         [*ENTRIES, ("c", 1.0, i, 1)])
        configs.append(DatasetConfig(path, BINS))
    for age, config in enumerate(configs[:3]):
        ingest_csv(config)
        # Ages set by hand: a file system's clock may give entries stored
        # in one tick the same time.
        entry = cache_dir() / cellcache._entry_name(cellcache.key_of(config))
        os.utime(entry, ns=(age, age))
    for config in configs[3:]:
        ingest_csv(config)
        assert len(cached_files()) == 3
    # The first two files were the oldest.
    parses.clear()
    for config in configs[2:]:
        ingest_csv(config)
    assert parses == []
    for config in configs[:2]:
        ingest_csv(config)
    assert parses == [configs[0].path, configs[1].path]
