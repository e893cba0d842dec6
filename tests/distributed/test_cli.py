"""``python -m repro.distributed`` rejects bad flags at the boundary."""

import pytest

from repro.distributed.__main__ import main


def test_concat_variant_is_a_usage_error(capsys):
    """D-M2TD has no CONCAT variant; argparse refuses it (exit 2)
    before any engine or pool is built."""
    with pytest.raises(SystemExit) as excinfo:
        main(["--variant", "concat", "--workers", "1",
              "--transport", "inline"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'concat'" in err
    assert "'avg'" in err and "'select'" in err
