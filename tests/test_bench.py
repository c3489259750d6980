from fractions import Fraction

from qrr import bench


def test_bench_runs_at_small_sizes(monkeypatch):
    monkeypatch.setattr(bench, "SIZES", (3, 8))
    monkeypatch.setattr(bench, "REPEATS", 1)
    monkeypatch.setattr(bench, "VERIFY_ORDER", Fraction(6))
    monkeypatch.setattr(bench, "SUM_ORDER", Fraction(5))
    monkeypatch.setattr(bench, "REPLAY_ORDER", Fraction(6))
    monkeypatch.setattr(bench, "JTP_ORDER", Fraction(8))
    lines = []
    bench.main(out=lines.append)
    text = "\n".join(lines)
    assert "convolution kernel" in text
    assert "double-mod10-2-8 at order 6" in text
    assert "cao-wang-1-2-3" in text and "sum side" in text
    assert "z-products: replay chains at order 6, jtp_check at order 8" in text
    assert "replay 1.8" in text and "jtp_check" in text
    assert len(lines) == 18
