/**
 * @file
 * Crash-consistent campaign checkpointing.
 *
 * A journal is an append-only text file: a header line binding it to
 * one campaign (a fingerprint of the spec's shape and seeds), then one
 * line per completed job, fsync'd as written.  Every statistic fbsim
 * reports is integral at the source (doubles are derived at render
 * time), so a record round-trips bit-exactly: a campaign resumed from
 * a journal merges into a report byte-identical to the uninterrupted
 * run.
 *
 * Crash model (kill -9, power loss): the only incomplete state a
 * record-per-line + fsync discipline can leave behind is a torn final
 * line.  The loader therefore accepts any prefix of well-formed
 * records and silently drops a malformed tail; the dropped job is
 * simply re-run on resume.  A fingerprint mismatch, by contrast, is a
 * hard error - resuming campaign A from campaign B's journal would
 * silently fabricate results - and so is a journal written in another
 * format version, which gets its own message naming both versions.
 *
 * Record grammar (one line, space-separated tokens, strings lowercase
 * hex so embedded spaces and newlines cannot break framing):
 *
 *   fbsim-campaign-journal v5 fp=<hex16> jobs=<n>
 *   job <index> ... <all CampaignResult fields in fixed order> ... end
 */

#ifndef FBSIM_CAMPAIGN_CAMPAIGN_JOURNAL_H_
#define FBSIM_CAMPAIGN_CAMPAIGN_JOURNAL_H_

#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign_spec.h"

namespace fbsim {

/**
 * Identity of a campaign for resume purposes: a 64-bit FNV-1a hash
 * over the spec's seed, reference count, job count and axis names.
 * Two specs with the same fingerprint have the same job universe, so
 * their journals are interchangeable; anything else is rejected.
 * (Workload *content* is a function object and cannot be hashed; the
 * names stand in for it, as they do in the rendered report.)
 */
std::uint64_t campaignFingerprint(const CampaignSpec &spec);

/** Serialize one result as a journal record line (no newline). */
std::string encodeJournalRecord(const CampaignResult &result);

/** Parse a record line; nullopt when malformed (torn tail). */
std::optional<CampaignResult> decodeJournalRecord(const std::string &line);

/** Append-side of a journal: open, write header if new, append. */
class CampaignJournal
{
  public:
    /**
     * Open `path` for appending.  An empty or absent file gets the
     * header; an existing one must carry this build's format version
     * and a matching fingerprint.  I/O, version or fingerprint failure
     * is fatal (fbsim_fatal) - checkpoint corruption must never be
     * silent.
     */
    CampaignJournal(const std::string &path, std::uint64_t fingerprint,
                    std::size_t num_jobs);
    ~CampaignJournal();

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    /** Append one completed job, fsync'd before returning. */
    void append(const CampaignResult &result);

  private:
    void writeLine(const std::string &line);

    int fd_ = -1;
    std::string path_;
};

/**
 * Load the completed records of `path`.  Returns the results of every
 * well-formed record (later duplicates of a job index win, so a job
 * journaled twice across restarts stays harmless); a torn or garbage
 * tail is skipped.  Fatal on a format-version or fingerprint
 * mismatch; an absent file yields an empty vector (resume of a
 * never-started campaign).
 */
std::vector<CampaignResult> loadCampaignJournal(
    const std::string &path, std::uint64_t fingerprint);

} // namespace fbsim

#endif // FBSIM_CAMPAIGN_CAMPAIGN_JOURNAL_H_
