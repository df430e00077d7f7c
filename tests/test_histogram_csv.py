"""The histogram CSV reader and writer against the loop forms they replace.

``write_histogram_csv`` formats rows in fixed-size blocks and
``read_histogram_csv`` parses through numpy's tokenizer, falling back to
a line-by-line ``float`` loop for text the tokenizer refuses.  Both must
behave exactly like the straightforward loops below: the same bytes on
disk, and the same arrays or the same exception with the same message.
"""

import os
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiphonon import (
    DomainError,
    TransientHistogram,
    read_histogram_csv,
    simulate_transient,
    write_histogram_csv,
)
from multiphonon.transient import HISTOGRAM_CSV_HEADER


def reference_write_histogram_csv(histogram, path):
    """One formatted line per bin, joined and written at once."""
    lines = [HISTOGRAM_CSV_HEADER]
    for center, count in zip(histogram.bin_centers, histogram.counts):
        count_text = str(int(count)) if float(count).is_integer() else repr(float(count))
        lines.append(f"{float(center)!r},{count_text}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def reference_read_histogram_csv(path):
    """Every line parsed with ``float``; errors name the physical line."""
    with open(path) as handle:
        lines = [(number, line.strip()) for number, line in enumerate(handle, start=1)]
    lines = [(number, line) for number, line in lines if line]
    if not lines or lines[0][1] != HISTOGRAM_CSV_HEADER:
        raise DomainError(f"histogram file must start with header '{HISTOGRAM_CSV_HEADER}'")
    centers, counts = [], []
    for number, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 2:
            raise DomainError(f"line {number}: expected 't,counts', got {line!r}")
        try:
            centers.append(float(parts[0]))
            counts.append(float(parts[1]))
        except ValueError as exc:
            raise DomainError(f"line {number}: {exc}") from exc
    centers = np.asarray(centers)
    counts = np.asarray(counts)
    if centers.size < 2:
        raise DomainError("histogram needs at least two bins")
    # The bins are TransientHistogram's to check: inf and NaN edges included.
    with np.errstate(over="ignore", invalid="ignore"):
        width = float(np.mean(np.diff(centers)))
        edges = np.concatenate([centers - 0.5 * width, [centers[-1] + 0.5 * width]])
    return TransientHistogram(bin_edges=edges, counts=counts)


def outcome(read, path):
    """The arrays' bits, or the exception's type and message."""
    try:
        histogram = read(path)
    except Exception as exc:  # compared with the reference's outcome
        return type(exc), str(exc)
    return histogram.bin_edges.tobytes(), histogram.counts.tobytes()


def noiseless_counts(n_bins, seed):
    """Expectation-valued counts: mostly non-integer floats."""
    rng = np.random.default_rng(seed)
    return 10.0 + 1e4 * np.exp(-np.linspace(0.0, 10.0, n_bins) / rng.uniform(0.5, 5.0))


class TestWriter:
    @pytest.mark.parametrize("n_bins", [10, 500, 8191, 8192, 8193, 100_000])
    @pytest.mark.parametrize("kind", ["integer", "float", "beyond-2**53", "2**63",
                                      "below-2**63", "-0.0", "one-non-integer"])
    def test_bytes_equal_the_reference(self, tmp_path, n_bins, kind):
        simulated = simulate_transient(0.885, 1e4, 10.0, n_bins, 10.0, seed=n_bins)
        counts = {
            "integer": simulated.counts,
            "float": noiseless_counts(n_bins, n_bins),
            # Integer-valued floats past 2**53, up to the top of the range,
            # and some non-integer ones between them.
            "beyond-2**53": np.where(
                np.arange(n_bins) % 3 == 0, 0.5 + np.arange(n_bins),
                np.geomspace(2.0**53, 1.7e308, n_bins),
            ),
        }.get(kind, simulated.counts)
        # One count in the last block that an int64 block cannot hold (2**63),
        # that it can (the largest float below), that prints as "0", or that
        # is not an integer.
        odd = {"2**63": 2.0**63, "below-2**63": np.nextafter(2.0**63, 0.0), "-0.0": -0.0,
               "one-non-integer": simulated.counts[-1] + 0.5}.get(kind)
        if odd is not None:
            counts = counts.copy()
            counts[-1] = odd
        histogram = TransientHistogram(bin_edges=simulated.bin_edges, counts=counts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_histogram_csv(histogram, tmp_path / "new.csv")
        reference_write_histogram_csv(histogram, tmp_path / "reference.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        back = read_histogram_csv(tmp_path / "new.csv")
        # + 0.0 turns -0.0, which the writer prints as 0, into 0.0.
        assert back.counts.tobytes() == (histogram.counts + 0.0).tobytes()


class TestWriterInPlace:
    """The writer overwrites an existing file in place and cuts it to the rows written."""

    @staticmethod
    def histogram(n_bins):
        return simulate_transient(0.885, 1e4, 10.0, n_bins, 10.0, seed=n_bins)

    def fresh_bytes(self, tmp_path, n_bins):
        write_histogram_csv(self.histogram(n_bins), tmp_path / "fresh.csv")
        return (tmp_path / "fresh.csv").read_bytes()

    @pytest.mark.parametrize("old_bins, new_bins", [(8193, 500), (500, 8193), (500, 500)])
    def test_overwrite_equals_a_fresh_write(self, tmp_path, old_bins, new_bins):
        path = tmp_path / "reused.csv"
        write_histogram_csv(self.histogram(old_bins), path)
        write_histogram_csv(self.histogram(new_bins), path)
        assert path.read_bytes() == self.fresh_bytes(tmp_path, new_bins)

    def test_writes_through_a_symlink(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        write_histogram_csv(self.histogram(8193), target)
        link.symlink_to(target)
        write_histogram_csv(self.histogram(500), link)
        assert link.is_symlink()
        assert target.read_bytes() == self.fresh_bytes(tmp_path, 500)

    def test_keeps_the_mode_of_an_existing_file(self, tmp_path):
        path = tmp_path / "private.csv"
        write_histogram_csv(self.histogram(8193), path)
        path.chmod(0o600)
        write_histogram_csv(self.histogram(500), path)
        assert path.stat().st_mode & 0o777 == 0o600
        assert path.read_bytes() == self.fresh_bytes(tmp_path, 500)

    def test_writes_to_a_pipe(self, tmp_path):
        # A pipe is not cut: it has no length to cut to.
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        try:
            write_histogram_csv(self.histogram(8193), fifo)
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [self.fresh_bytes(tmp_path, 8193)]

    def test_writes_to_dev_null(self):
        # ftruncate would refuse /dev/null with EINVAL.
        write_histogram_csv(self.histogram(500), os.devnull)

    def test_an_error_after_the_first_block_leaves_only_the_rows_written(self, tmp_path,
                                                                          monkeypatch):
        path = tmp_path / "partial.csv"
        write_histogram_csv(self.histogram(20_000), path)

        class FirstBlockOnly(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, slice) and key.start:
                    raise RuntimeError("second block")
                return super().__getitem__(key)

        centers = TransientHistogram.bin_centers
        monkeypatch.setattr(TransientHistogram, "bin_centers",
                            property(lambda self: centers.fget(self).view(FirstBlockOnly)))
        with pytest.raises(RuntimeError, match="^second block$"):
            write_histogram_csv(self.histogram(10_000), path)
        monkeypatch.undo()
        expected = self.fresh_bytes(tmp_path, 10_000).splitlines(keepends=True)[:8193]
        assert path.read_bytes() == b"".join(expected)

    def test_a_directory_or_a_missing_parent_is_refused(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            write_histogram_csv(self.histogram(500), tmp_path)
        with pytest.raises(FileNotFoundError):
            write_histogram_csv(self.histogram(500), tmp_path / "missing" / "h.csv")
        assert list(tmp_path.iterdir()) == []


class TestReader:
    def test_error_names_the_physical_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_us,counts\n\n\n0.5,3\n1.5,x\n")
        with pytest.raises(DomainError, match=r"^line 5: could not convert string to float: 'x'$"):
            read_histogram_csv(path)

    @pytest.mark.parametrize("data", [b"\xfft_us,counts\n", b"t_us,counts\n0.5,3\n1.5,\xff\n"])
    def test_bytes_that_are_not_text_raise_domain_error(self, tmp_path, data):
        path = tmp_path / "binary.csv"
        path.write_bytes(data)
        # The error names the file.
        message = f"^histogram file {re.escape(repr(str(path)))} is not valid text: .*0xff"
        with pytest.raises(DomainError, match=message):
            read_histogram_csv(path)

    @pytest.mark.parametrize("text", [
        "t_us,counts\n",
        "t_us,counts",
        "\n  \nt_us,counts\n\n \t \n",
        "t_us,counts\n0.5,3\n",
    ])
    def test_fewer_than_two_bins_raise_without_a_warning(self, tmp_path, text):
        # numpy.loadtxt warns on empty input; no warning may escape.
        path = tmp_path / "short.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^histogram needs at least two bins$"):
                read_histogram_csv(path)

    @pytest.mark.parametrize("text", [
        "t_us,counts\n\n0.5,3\n1.5,4\n",
        "t_us,counts\n0.5,3\n\n1.5,x\n",
    ])
    def test_reads_a_pipe(self, tmp_path, text):
        # A pipe cannot seek, so it must reach the loop without a rewind.
        (tmp_path / "file.csv").write_text(text)
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,))
        writer.start()
        try:
            result = outcome(read_histogram_csv, fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert result == outcome(reference_read_histogram_csv, tmp_path / "file.csv")

    @pytest.mark.parametrize("text", [
        "t_us,counts\n0.5,1_0\n1.5,2\n",
        "t_us,counts\n0.5,\u0661\u0662\n1.5,2\n",
        "t_us,counts\n0.5,1\n \t \n1.5,2\n",
        "t_us,counts\r\n0.5,1\r\n\r\n1.5,2\r\n",
        "t_us,counts\r0.5,1\r1.5,2",
        "t_us,counts\n 0.5 ,\t1 \n1.5,2\x1c\n",
        "t_us,counts\n0.5,\x1c1\n1.5\x1f,2\n",
        "t_us,counts\n0.5,1 \n1.5,2\n",
        "t_us,counts\n0.5,1\x00\n1.5,2\n",
        "t_us,counts\n0.5,\n1.5,2\n",
        "t_us,counts\n0.5,1,3\n1.5,2,3\n",
        "t_us,counts\n0.5\n1.5\n",
        "t_us,counts\n0.5,nan\n1.5,2\n",
        "t_us,counts\n0.5,1e400\n1.5,2\n",
        "t_us,counts\n0.5,0x10\n1.5,2\n",
        "t_us,counts\n.5,1.\n1.5,2.5e-320\n",
    ])
    def test_edge_cases_match_the_reference(self, tmp_path, text):
        path = tmp_path / "edge.csv"
        with open(path, "w", newline="") as handle:
            handle.write(text)
        assert outcome(read_histogram_csv, path) == outcome(reference_read_histogram_csv, path)


# Blank-looking text: ASCII and Unicode whitespace that ``str.strip``
# drops, none of it a line break to a text-mode file.  ``float`` drops it
# too, except for the ASCII separators \x1c-\x1f.
_SPACES = st.text(alphabet=" \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2003\u2028\u3000", max_size=3)
# Arabic-Indic and fullwidth digits, which ``float`` reads as 0-9.
_NON_ASCII_DIGITS = [str.maketrans("0123456789", "".join(chr(zero + d) for d in range(10)))
                     for zero in (0x660, 0xFF10)]
_PLAIN = ["repr", "repr", "int"]
_ANY = _PLAIN + ["underscore", "non-ascii", "special", "empty", "junk"]


@st.composite
def _field(draw, value, spellings, spaces):
    """*value* as CSV text in one of the spellings ``float`` accepts or a bad one."""
    spelling = draw(st.sampled_from(spellings))
    if spelling == "int" and value.is_integer():
        text = str(int(value))
    elif spelling == "underscore" and value.is_integer() and value >= 10:
        digits = str(int(value))
        text = digits[0] + "_" + digits[1:]
    elif spelling == "non-ascii" and value.is_integer():
        text = str(int(value)).translate(draw(st.sampled_from(_NON_ASCII_DIGITS)))
    elif spelling == "special":
        text = draw(st.sampled_from(["nan", "inf", "-inf", "Infinity", "+NaN", "1e400", "-0.0"]))
    elif spelling == "empty":
        text = ""
    elif spelling == "junk":
        text = draw(st.sampled_from(["x", "1 0", "0x10", "1j", '"1"', "1\x00", "--1", "\ufeff1"]))
    else:
        text = repr(value)
    return draw(spaces) + text + draw(spaces)


@st.composite
def _histogram_text(draw):
    n_rows = draw(st.integers(0, 6))
    start = draw(st.sampled_from([0.0, 0.5, -3.25, 1e-7]))
    width = draw(st.sampled_from([1.0, 0.02, 1e-6, 3.0]))
    # Many files spell every number plainly and pad with ASCII blanks or
    # nothing, so that numpy parses them.
    spellings = draw(st.sampled_from([_PLAIN, _ANY]))
    spaces = draw(st.sampled_from([st.just(""), st.text(" \t", max_size=2), _SPACES]))
    lines = [draw(st.sampled_from([HISTOGRAM_CSV_HEADER] * 9 + ["time,counts"]))]
    for row in range(n_rows):
        fields = [
            draw(_field(start + row * width, spellings, spaces)),
            draw(_field(float(draw(st.integers(0, 2_000))), spellings, spaces)),
        ]
        shape = draw(st.sampled_from(["pair"] * 12 + ["one", "three"]))
        if shape == "one":
            fields = fields[:1]
        elif shape == "three":
            fields.append(fields[1])
        lines.append(",".join(fields))
    # Blank and whitespace-only lines anywhere, also before the header.
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(spaces))
    lines = [draw(spaces) + line + draw(spaces) for line in lines]
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines)
    return text + ending if draw(st.booleans()) else text


@settings(max_examples=400, deadline=None)
@given(text=_histogram_text())
def test_reader_matches_the_reference_on_generated_files(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    with open(path, "w", newline="") as handle:
        handle.write(text)
    assert outcome(read_histogram_csv, path) == outcome(reference_read_histogram_csv, path)
