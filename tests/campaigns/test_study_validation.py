"""A passed-in study must match the spec it runs under: the spec
fingerprint keys the result cache and the journal, so a mismatched
study would replay a resume onto the wrong space."""

import pytest

from repro.campaigns import CampaignOrchestrator
from repro.core import EnsembleStudy
from repro.exceptions import CampaignSpecError
from repro.simulation import make_system

from .conftest import spec_with


@pytest.mark.parametrize(
    "system, resolution, field",
    [
        ("double_pendulum", 6, "scenario"),
        ("epidemic_seir", 5, "resolution"),
    ],
)
def test_rejects_mismatched_study(system, resolution, field):
    study = EnsembleStudy.create(make_system(system), resolution)
    with pytest.raises(CampaignSpecError) as excinfo:
        CampaignOrchestrator(spec_with(), study=study)
    assert excinfo.value.field == field


def test_accepts_matching_study_with_other_parameters():
    """Only the system and the resolution are checked: a study built
    with its own true parameters still runs under the spec."""
    system = make_system("epidemic_seir")
    true_params = {
        p.name: p.low + 0.3 * (p.high - p.low) for p in system.parameters
    }
    study = EnsembleStudy.create(system, 6, true_params=true_params)
    with CampaignOrchestrator(spec_with(max_rounds=1), study=study) as orch:
        assert orch.run().cells_simulated > 0
