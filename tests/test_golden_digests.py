"""``tests/golden_digests.py --against``: one command tells whether two trees write the same artifacts."""

import json

import golden_digests


def test_against_prints_each_path_whose_digest_differs_and_exits_1(tmp_path, monkeypatch, capsys):
    files = {"cnn/checkpoint.bin": b"weights", "cnn/history.csv": b"epoch\n", "eval/report.json": b"{}"}
    monkeypatch.setattr(golden_digests, "run_pipeline", lambda root: dict(files))
    assert golden_digests.main([str(tmp_path / "first")]) == 0
    old = tmp_path / "old.json"
    old.write_text(capsys.readouterr().out)
    assert sorted(json.loads(old.read_text())) == sorted(files)

    assert golden_digests.main([str(tmp_path / "same"), "--against", str(old)]) == 0
    assert capsys.readouterr().out == ""

    files["cnn/history.csv"] = b"epoch,train_loss\n"
    del files["eval/report.json"]
    files["eval/report.txt"] = b"Method"
    assert golden_digests.main([str(tmp_path / "changed"), "--against", str(old)]) == 1
    assert capsys.readouterr().out.splitlines() == ["cnn/history.csv", "eval/report.json", "eval/report.txt"]
