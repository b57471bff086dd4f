"""Container platforms (§II: "some systems are starting to support
containers"; §VI-A: COMPSs runs on "containerized clusters" [19]; §VI-B:
agents are "executed in a Docker container").

The model captures what scheduling actually sees of containers:

* an image registry with named images of a given size;
* per-node image caches — running a task whose image is cached starts
  immediately; a cold node first *pulls* the image (registry → node over
  the platform network);
* a :class:`ContainerRuntime` that tracks pulls and answers "how long until
  a container of image X can start on node Y", which the simulated executor
  can fold into task stage-in via :func:`container_stage_in`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.infrastructure.platform import Platform


class ContainerError(RuntimeError):
    """Raised for unknown images or misconfigured registries."""


@dataclass(frozen=True)
class ContainerImage:
    """A named, versioned container image."""

    name: str
    size_bytes: float = 500e6
    start_overhead_s: float = 1.0  # container cold-start once the image is local

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("image size must be positive")
        if self.start_overhead_s < 0:
            raise ValueError("start overhead must be >= 0")


class ImageRegistry:
    """The registry service images are pulled from (one per platform)."""

    def __init__(self, registry_node: str) -> None:
        self.registry_node = registry_node
        self._images: Dict[str, ContainerImage] = {}

    def push(self, image: ContainerImage) -> None:
        self._images[image.name] = image

    def get(self, name: str) -> ContainerImage:
        image = self._images.get(name)
        if image is None:
            raise ContainerError(f"unknown image {name!r}; push it to the registry first")
        return image


class ContainerRuntime:
    """Per-platform container state: node-local image caches and pulls."""

    def __init__(self, platform: Platform, registry: ImageRegistry) -> None:
        self.platform = platform
        self.registry = registry
        self._cached: Dict[str, Set[str]] = {}  # node -> image names
        self.pull_count = 0
        self.pulled_bytes = 0.0

    def is_cached(self, node_name: str, image_name: str) -> bool:
        return image_name in self._cached.get(node_name, set())

    def preload(self, node_name: str, image_name: str) -> None:
        """Warm a node's cache without charging a pull (e.g. baked AMIs)."""
        self.registry.get(image_name)
        self._cached.setdefault(node_name, set()).add(image_name)

    def evict(self, node_name: str, image_name: str) -> None:
        self._cached.get(node_name, set()).discard(image_name)

    def start_delay(self, node_name: str, image_name: str) -> float:
        """Seconds until a container of this image can start on the node.

        Charges a registry→node pull when the image is cold, then marks it
        cached (subsequent containers on that node start warm).
        """
        image = self.registry.get(image_name)
        if self.is_cached(node_name, image_name):
            return image.start_overhead_s
        pull_time = self.platform.network.transfer_time(
            self.registry.registry_node, node_name, image.size_bytes
        )
        self.pull_count += 1
        self.pulled_bytes += image.size_bytes
        self._cached.setdefault(node_name, set()).add(image_name)
        return pull_time + image.start_overhead_s


def container_stage_in(runtime: ContainerRuntime, image_name: Optional[str]):
    """Build a SimulatedExecutor stage-in hook charging container starts.

    Returns a callable ``(instance, node_name) -> extra_seconds`` suitable
    for :attr:`SimulatedExecutor.extra_stage_in`.
    """

    def hook(instance, node_name: str) -> float:
        if image_name is None:
            return 0.0
        return runtime.start_delay(node_name, image_name)

    return hook
