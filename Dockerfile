# Containerized `rehearsal serve`: the long-running verification
# daemon (see docs/serve.md).  Build and run:
#
#     docker build -t rehearsal .
#     docker run --rm -p 8421:8421 rehearsal
#     curl http://localhost:8421/healthz
#
# Extra `rehearsal serve` flags append to the entrypoint, e.g.
# `docker run ... rehearsal --workers 4 --quota 10`.  The verdict
# cache lives in /var/cache/rehearsal; mount a volume there to keep
# verdicts across container restarts.

FROM python:3.12-slim

WORKDIR /opt/rehearsal

COPY setup.py README.md ./
COPY src ./src
RUN pip install --no-cache-dir .

RUN mkdir -p /var/cache/rehearsal

EXPOSE 8421

# --host 0.0.0.0: the daemon defaults to loopback, which is unreachable
# through Docker port publishing.
ENTRYPOINT ["rehearsal", "serve", "--host", "0.0.0.0", "--port", "8421", \
            "--cache-dir", "/var/cache/rehearsal"]
