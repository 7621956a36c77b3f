"""Teamwork technology simulators.

Assignment 1 requires each team to adopt four free technologies: "(1)
Slack, a messaging application to communicate, (2) GitHub … to
collaborate, create customized workflows, and share code, (3) Google
Docs … to collaborate and produce project assignments reports, and (4)
Videos and YouTube, to shoot, edit, and upload videos to present the
results."

These in-memory simulators give the course simulation observable
activity streams (who messaged, who committed, who edited, who appeared
in the video) — the evidence the peer-rating and grading policies
consume — and enforce the assignment's own rules (e.g. videos must be
5–10 minutes and feature every member).
"""

from repro.teamtech.docs import CollaborativeDoc, Revision
from repro.teamtech.github import Commit, PullRequest, Repository
from repro.teamtech.slack import Channel, Message, Workspace
from repro.teamtech.youtube import Video, VideoChannel, VideoError

__all__ = [
    "Channel",
    "CollaborativeDoc",
    "Commit",
    "Message",
    "PullRequest",
    "Repository",
    "Revision",
    "Video",
    "VideoChannel",
    "VideoError",
    "Workspace",
]
