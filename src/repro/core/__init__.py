"""The CONVOLVE security-by-design framework (paper Section II).

The paper's primary contribution is not one mechanism but the *modular,
long-term, compositional* framework tying them together: a worst-case
adversary model, a catalog of security features (each implemented by a
substrate of this reproduction), and a derivation engine that tailors a
minimal concrete architecture to a use-case profile.

>>> from repro.core import SecurityFramework, satellite_imagery
>>> framework = SecurityFramework()
>>> arch = framework.derive(satellite_imagery())
>>> "masked_crypto_hw" in arch.feature_names   # no physical attacker
False
"""

from .adversary import (AdversaryModel, Capability, OUT_OF_SCOPE,
                        WORST_CASE, WORST_CASE_CAPABILITIES,
                        remote_software_adversary)
from .features import (Asset, Overhead, SecurityFeature, Threat,
                       default_catalog)
from .framework import (SecurityArchitecture, SecurityFramework,
                        UseCaseProfile)
from .usecases import (ALL_USE_CASES, acoustic_scene_analysis,
                       satellite_imagery, speech_enhancement,
                       traffic_supervision)

__all__ = [
    "AdversaryModel", "Capability", "OUT_OF_SCOPE", "WORST_CASE",
    "WORST_CASE_CAPABILITIES", "remote_software_adversary",
    "Asset", "Overhead", "SecurityFeature", "Threat", "default_catalog",
    "SecurityArchitecture", "SecurityFramework", "UseCaseProfile",
    "ALL_USE_CASES", "acoustic_scene_analysis", "satellite_imagery",
    "speech_enhancement", "traffic_supervision",
]
