"""The application the paper runs on the overlay: the Squirrel web cache.

The paper validates the simulator against a deployment of Squirrel
(§5.3.1, Figure 8); :class:`SquirrelProxy` is that application.
"""

from repro.apps.squirrel import SquirrelProxy, WebOrigin

__all__ = ["SquirrelProxy", "WebOrigin"]
