"""Command-line interface."""

import numpy as np
import pytest

from repro.cli import main, parse_distribution


def _chromosome_text(path):
    """The chromosome of an ``evolve --output`` file, below its record
    line."""
    record, chromosome = path.read_text().split("\n", 1)
    assert record.startswith("# component=")
    return chromosome


def _drop_record(path):
    """Rewrite ``path`` as files written without a record line are."""
    path.write_text(_chromosome_text(path))


def test_parse_distribution_variants():
    assert parse_distribution("uniform", 8, False).name == "Du"
    assert parse_distribution("d1", 8, False).name == "D1"
    assert parse_distribution("d2", 8, False).name == "D2"
    hn = parse_distribution("half-normal:30", 8, True)
    assert int(np.argmax(hn.pmf)) == 0
    nm = parse_distribution("normal:100:20", 8, False)
    assert abs(int(np.argmax(nm.pmf)) - 100) <= 1


def test_parse_distribution_rejects_unknown():
    with pytest.raises(ValueError):
        parse_distribution("zipf", 8, False)
    with pytest.raises(ValueError):
        parse_distribution("normal:1", 8, False)


def test_cli_evolve_and_characterize(tmp_path, capsys):
    out = tmp_path / "mult.cgp"
    code = main(
        [
            "evolve",
            "--width", "3",
            "--dist", "uniform",
            "--wmed-percent", "4",
            "--generations", "150",
            "--output", str(out),
        ]
    )
    assert code == 0
    assert _chromosome_text(out).startswith("{6,6,")

    code = main(["characterize", str(out), "--dist", "uniform"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "area:" in captured
    assert "WMED=" in captured


def test_cli_export_verilog(tmp_path, capsys):
    out = tmp_path / "mult.cgp"
    main(
        [
            "evolve", "--width", "2", "--dist", "uniform",
            "--wmed-percent", "0", "--generations", "5",
            "--output", str(out),
        ]
    )
    vfile = tmp_path / "mult.v"
    code = main(
        ["export-verilog", str(out), "--module", "m2", "--output", str(vfile)]
    )
    assert code == 0
    text = vfile.read_text()
    assert text.startswith("module m2 (")
    assert text.rstrip().endswith("endmodule")


def test_cli_evolve_output_identical_with_engine_off_and_auto(tmp_path):
    outputs = {}
    for engine in ("off", "auto"):
        out = tmp_path / f"{engine}.cgp"
        code = main(
            [
                "evolve",
                "--width", "4",
                "--unsigned",
                "--dist", "d2",
                "--wmed-percent", "1",
                "--generations", "300",
                "--seed", "5",
                "--engine", engine,
                "--output", str(out),
            ]
        )
        assert code == 0
        outputs[engine] = out.read_bytes()
    assert outputs["off"] == outputs["auto"]


def test_cli_evolve_stdout(capsys):
    code = main(
        ["evolve", "--width", "2", "--dist", "d2",
         "--wmed-percent", "5", "--generations", "20", "--unsigned"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("{4,4,")


def test_cli_evolve_and_characterize_adder(tmp_path, capsys):
    out = tmp_path / "add.cgp"
    code = main(
        [
            "evolve",
            "--component", "adder",
            "--metric", "med",
            "--width", "4",
            "--wmed-percent", "2",
            "--generations", "120",
            "--output", str(out),
        ]
    )
    assert code == 0
    # Adder interface: 8 inputs -> 5 outputs (the old multiplier-only
    # characterize assumed no == ni and produced garbage here).
    assert _chromosome_text(out).startswith("{8,5,")
    # The 2w -> w+1 shape is shared with the subtractor, so auto
    # inference must refuse (without the record line); the explicit
    # component characterizes fine.
    _drop_record(out)
    code = main(["characterize", str(out), "--component", "adder"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "component: adder (width 4, unsigned)" in captured
    assert "WMED=" in captured


def test_cli_characterize_rejects_ambiguous_interface(tmp_path):
    """Regression: the adder/subtractor shape collision must not let
    inference silently pick one — the error names both candidates."""
    out = tmp_path / "add.cgp"
    main(
        ["evolve", "--component", "adder", "--width", "3",
         "--wmed-percent", "0", "--generations", "5", "--output", str(out)]
    )
    _drop_record(out)
    with pytest.raises(SystemExit) as err:
        main(["characterize", str(out)])
    message = str(err.value)
    assert "ambiguous" in message
    assert "2 components" in message
    assert "adder" in message and "subtractor" in message
    assert "--component" in message


def test_cli_characterize_rejects_ambiguous_divider_shifter(tmp_path):
    """The divider and barrel shifter share 2w -> w the same way."""
    out = tmp_path / "div.cgp"
    main(
        ["evolve", "--component", "divider", "--width", "2",
         "--wmed-percent", "0", "--generations", "5", "--output", str(out)]
    )
    assert _chromosome_text(out).startswith("{4,2,")
    _drop_record(out)
    with pytest.raises(SystemExit) as err:
        main(["characterize", str(out)])
    message = str(err.value)
    assert "2 components" in message
    assert "divider" in message and "barrel-shifter" in message


def test_cli_evolve_and_characterize_mac(tmp_path, capsys):
    out = tmp_path / "mac.cgp"
    code = main(
        [
            "evolve",
            "--component", "mac",
            "--width", "2",
            "--wmed-percent", "3",
            "--generations", "60",
            "--output", str(out),
        ]
    )
    assert code == 0
    assert _chromosome_text(out).startswith("{9,5,")  # 2w + (2w+1) -> 2w+1
    code = main(["characterize", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "component: mac (width 2, signed)" in captured


def test_cli_characterize_component_mismatch(tmp_path):
    out = tmp_path / "add.cgp"
    main(
        ["evolve", "--component", "adder", "--width", "3",
         "--wmed-percent", "0", "--generations", "5", "--output", str(out)]
    )
    _drop_record(out)
    with pytest.raises(SystemExit, match="does not match"):
        main(["characterize", str(out), "--component", "multiplier"])


def test_cli_characterize_reads_the_recorded_objective(tmp_path, capsys):
    """Regression: an unsigned D2 multiplier characterized without flags
    was decoded signed under the uniform law (WMED=82.4051% for a 0.4832%
    design).  The file now records the objective it was evolved under."""
    out = tmp_path / "m6.chr"
    code = main(
        ["evolve", "--width", "6", "--unsigned", "--dist", "d2",
         "--wmed-percent", "0.5", "--generations", "3000", "--seed", "3",
         "--output", str(out)]
    )
    assert code == 0
    assert "error=0.4832%" in capsys.readouterr().err
    assert out.read_text().startswith(
        "# component=multiplier signedness=unsigned dist=d2 metric=wmed\n"
    )
    assert main(["characterize", str(out)]) == 0
    report = capsys.readouterr().out
    assert "component: multiplier (width 6, unsigned)" in report
    assert "WMED=0.4832%" in report
    # Flags that agree with the record (in any spelling) are accepted.
    assert main(["characterize", str(out), "--unsigned", "--dist", "D2"]) == 0
    assert "WMED=0.4832%" in capsys.readouterr().out


@pytest.mark.parametrize("flags,named", [
    (["--dist", "uniform"], ("dist=d2", "--dist asks for dist=uniform")),
    (["--component", "divider"], ("component=multiplier",
                                  "component=divider")),
])
def test_cli_characterize_refuses_flags_contradicting_the_record(
    tmp_path, flags, named
):
    out = tmp_path / "m3.chr"
    main(["evolve", "--width", "3", "--unsigned", "--dist", "d2",
          "--wmed-percent", "0", "--generations", "5", "--output", str(out)])
    with pytest.raises(SystemExit) as err:
        main(["characterize", str(out), *flags])
    assert all(part in str(err.value) for part in named)


def test_cli_characterize_refuses_unsigned_for_a_signed_record(tmp_path):
    out = tmp_path / "m3.chr"
    main(["evolve", "--width", "3", "--wmed-percent", "0",
          "--generations", "5", "--output", str(out)])
    with pytest.raises(
        SystemExit, match="signedness=signed; --unsigned asks for "
        "signedness=unsigned",
    ):
        main(["characterize", str(out), "--unsigned"])


def test_cli_rejects_oversized_mac():
    with pytest.raises(SystemExit, match="width must be <= 5"):
        main(["evolve", "--component", "mac", "--width", "8",
              "--generations", "1"])


@pytest.mark.parametrize("component,interface", [
    ("divider", "{6,3,"),
    ("subtractor", "{6,4,"),
    ("barrel-shifter", "{6,3,"),
])
def test_cli_evolve_and_characterize_new_components(
    tmp_path, capsys, component, interface
):
    out = tmp_path / "c.cgp"
    code = main(
        [
            "evolve",
            "--component", component,
            "--width", "3",
            "--wmed-percent", "4",
            "--generations", "80",
            "--output", str(out),
        ]
    )
    assert code == 0
    assert _chromosome_text(out).startswith(interface)
    code = main(["characterize", str(out), "--component", component])
    assert code == 0
    captured = capsys.readouterr().out
    assert f"component: {component} (width 3, unsigned)" in captured
    assert "WMED=" in captured
